"""Algorithm 7 — **MultiLists**: lock-free exact parallel ordering.

Each thread owns a private list of ``max+1`` buckets, so phase 1 (the
bucket fill) needs no locks at all.  A prefix-sum over the per-thread
bucket sizes then gives every ``(thread, degree)`` bucket its starting
position ``orderPos[tID][deg]`` in the global ``order[]`` array, and the
buckets are copied out:

* degrees below ``parRatio·max`` (≈99 % of the vertices of a power-law
  graph) are copied by a parallel region *per degree* — one
  ``#pragma omp parallel for`` over thread ids for each degree value;
* the sparse high-degree tail is copied sequentially, because
  parallelising a range that holds ~1 % of the vertices spread over 90 %
  of the degree values would mostly produce false sharing on ``order[]``.

This is the ordering ParAPSP ships with (Algorithm 8).  It produces the
*exact* descending order — identical, bucket for bucket, to
:func:`repro.order.buckets.exact_bucket_order`, with ties in ascending
vertex id (the block assignment hands each thread a contiguous id range,
and threads are drained in id order).

The same procedure doubles as a general-purpose parallel sort for keys
in a bounded range — exposed as :func:`repro.sort.multilists_sort`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..exceptions import OrderingError
from ..parallel import Backend, Schedule, parallel_for
from ..parallel.schedule import block_assignment
from ..simx.locksim import Op, run_lock_program
from ..simx.machine import MachineSpec
from ..simx.trace import SimResult, TraceEvent
from .base import DEFAULT_COSTS, OrderingCosts, OrderingResult

__all__ = ["multilists_order", "simulate_multilists", "DEFAULT_PAR_RATIO"]

#: degrees below ``parRatio × max`` are merged in parallel (§4.3)
DEFAULT_PAR_RATIO = 0.1


def _fill_local_buckets(
    degrees: np.ndarray, blocks: List[np.ndarray], max_degree: int
) -> List[List[List[int]]]:
    """Phase 1: per-thread bucket lists (pure, no sharing)."""
    lists: List[List[List[int]]] = []
    for block in blocks:
        local: List[List[int]] = [[] for _ in range(max_degree + 1)]
        for i in block:
            local[int(degrees[i])].append(int(i))
        lists.append(local)
    return lists


def _order_positions(
    lists: List[List[List[int]]], max_degree: int
) -> np.ndarray:
    """Phase 2 setup: ``orderPos[tID][deg]`` start offsets."""
    sizes = np.array(
        [[len(local[d]) for d in range(max_degree + 1)] for local in lists],
        dtype=np.int64,
    )
    return _positions(sizes)


def _positions(sizes: np.ndarray) -> np.ndarray:
    """``orderPos[tID][deg]`` from the ``(T, max+1)`` bucket sizes.

    The global array is laid out degree-descending, and within one
    degree thread 0's bucket precedes thread 1's, and so on.
    """
    totals = sizes.sum(axis=0)
    above = np.cumsum(totals[::-1])[::-1] - totals  # degrees > d
    return above + np.cumsum(sizes, axis=0) - sizes


def multilists_order(
    degrees: np.ndarray,
    *,
    num_threads: int = 1,
    par_ratio: float = DEFAULT_PAR_RATIO,
    backend: "Backend | str" = Backend.THREADS,
    costs: OrderingCosts = DEFAULT_COSTS,
) -> OrderingResult:
    """Run MultiLists for real.  Exactly descending, fully deterministic.

    Phase 1 runs one task per thread id (each fills its own bucket
    list); phase 2 launches, per low degree value, one parallel region
    over thread ids — faithful to Algorithm 7's loop structure.
    """
    if not 0.0 <= par_ratio <= 1.0:
        raise OrderingError(f"par_ratio must be in [0, 1], got {par_ratio}")
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    if n == 0:
        return OrderingResult(
            method="multilists", order=np.empty(0, dtype=np.int64), exact=True
        )
    T = max(1, num_threads)
    hi = int(degrees.max())
    blocks = block_assignment(n, T)

    # phase 1: parallel over thread ids, each sorting its own block
    # into degree buckets: the block's ids by ascending degree (stable,
    # so ids ascend within a bucket) and the bucket sizes
    bucketed: List[Optional[np.ndarray]] = [None] * T
    sizes = np.zeros((T, hi + 1), dtype=np.int64)

    def fill(t: int, _thread: int) -> None:
        keys = degrees[blocks[t]]
        sizes[t] = np.bincount(keys, minlength=hi + 1)
        bucketed[t] = blocks[t][np.argsort(keys, kind="stable")]

    parallel_for(
        T, fill, num_threads=T, schedule=Schedule.BLOCK, backend=backend
    )
    if any(ids is None for ids in bucketed):
        raise OrderingError("phase 1 failed to fill every thread's list")

    pos = _positions(sizes)
    first = np.cumsum(sizes, axis=1) - sizes  # bucket starts per thread
    order = np.empty(n, dtype=np.int64)
    low_cut = int(par_ratio * hi)  # degrees 0..low_cut merged in parallel

    # phase 2a: per-degree parallel regions for the low range
    for d in range(0, low_cut + 1):

        def copy_bucket(t: int, _thread: int, _d: int = d) -> None:
            a, p, k = first[t, _d], pos[t, _d], sizes[t, _d]
            order[p:p + k] = bucketed[t][a:a + k]

        parallel_for(
            T,
            copy_bucket,
            num_threads=T,
            schedule=Schedule.BLOCK,
            backend=backend,
        )
    # phase 2b: sequential copy of the high-degree tail, the end of each
    # thread's bucketed ids, every id to its bucket's slot
    for t in range(T):
        a = int(sizes[t, :low_cut + 1].sum())
        tail = bucketed[t][a:]
        d = degrees[tail]
        order[pos[t, d] + np.arange(a, a + tail.size) - first[t, d]] = tail

    return OrderingResult(
        method="multilists",
        order=order,
        exact=True,
        num_threads=T,
        stats={
            "par_ratio": float(par_ratio),
            "low_cut_degree": float(low_cut),
            "parallel_regions": float(low_cut + 2),  # fill + per-degree
        },
    )


def simulate_multilists(
    degrees: np.ndarray,
    machine: MachineSpec,
    *,
    num_threads: int,
    par_ratio: float = DEFAULT_PAR_RATIO,
    costs: OrderingCosts = DEFAULT_COSTS,
    trace: bool = False,
) -> OrderingResult:
    """Play MultiLists on the simulated machine.

    Virtual phases: (1) lock-free parallel fill — per-thread busy time
    is its block size times the unlocked insert cost; (2) sequential
    orderPos prefix scan over ``(max+1)·T`` buckets; (3) one simulated
    parallel region per low degree (fork/join overhead each — the term
    that bites small graphs at 16 threads in Figure 6) with per-thread
    copy costs and a false-sharing charge at bucket boundaries;
    (4) sequential high-degree copy.
    """
    if not 0.0 <= par_ratio <= 1.0:
        raise OrderingError(f"par_ratio must be in [0, 1], got {par_ratio}")
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    if n == 0:
        raise OrderingError("cannot order an empty vertex set")
    T = machine.clamp_threads(num_threads)
    hi = int(degrees.max())
    blocks = block_assignment(n, T)
    lists = _fill_local_buckets(degrees, blocks, hi)
    pos = _order_positions(lists, hi)
    low_cut = int(par_ratio * hi)

    # ---- phase 1: lock-free fill (one parallel region)
    insert = costs.direct_bin + costs.append
    programs = [
        [Op(work=len(block) * insert, name="fill")] for block in blocks
    ]
    sim = run_lock_program(
        programs, machine, trace=trace, region="multilists.fill"
    )

    # ---- phase 2 setup: sequential prefix over (hi+1)×T buckets
    prefix_work = (hi + 1) * T * costs.prefix
    sim = sim.merge_sequential(
        _seq_result(prefix_work, "multilists.prefix", trace)
    )

    # ---- phase 3: one region per low degree
    for d in range(0, low_cut + 1):
        per_thread = []
        for t in range(T):
            size = len(lists[t][d])
            work = size * costs.emit
            if size:
                # adjacent threads write adjacent order[] slots: one
                # cache-line conflict per populated bucket boundary
                work += machine.false_sharing_penalty
            per_thread.append([Op(work=work, name=f"emit.deg{d}")])
        sim = sim.merge_sequential(
            run_lock_program(per_thread, machine, trace=trace)
        )

    # ---- phase 4: sequential high-degree copy
    n_high = sum(
        len(lists[t][d]) for t in range(T) for d in range(low_cut + 1, hi + 1)
    )
    tail_work = n_high * costs.emit + (hi - low_cut) * T * costs.bucket_scan
    sim = sim.merge_sequential(
        _seq_result(tail_work, "multilists.high-tail", trace)
    )

    order = np.empty(n, dtype=np.int64)
    for d in range(hi + 1):
        for t in range(T):
            p = int(pos[t, d])
            for v in lists[t][d]:
                order[p] = v
                p += 1

    return OrderingResult(
        method="multilists",
        order=order,
        exact=True,
        num_threads=T,
        sim=sim,
        stats={
            "par_ratio": float(par_ratio),
            "low_cut_degree": float(low_cut),
            "parallel_regions": float(low_cut + 2),
        },
    )


def _seq_result(
    work: float, name: str = "", trace: bool = False
) -> SimResult:
    events = []
    if trace and work > 0:
        events.append(TraceEvent(0, 0, 0.0, work, label=name))
    return SimResult(
        num_threads=1,
        makespan=work,
        busy=np.array([work]),
        overhead=np.array([0.0]),
        events=events,
    )

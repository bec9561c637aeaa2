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
in a bounded range, :func:`repro.sort.multilists_argsort`.  The fill,
the ``orderPos`` prefix and the copy-out scatter live there, in
:mod:`repro.sort.multilists_sort`, and both procedures call them.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import OrderingError
from ..parallel import Backend, Schedule, parallel_for
from ..parallel.schedule import block_assignment
from ..simx.locksim import Op, run_lock_program
from ..simx.machine import MachineSpec
from ..simx.trace import SimResult
from ..sort.multilists_sort import fill_buckets, order_positions, scatter
from .base import DEFAULT_COSTS, OrderingCosts, OrderingResult
from .buckets import exact_bucket_order

__all__ = ["multilists_order", "simulate_multilists", "DEFAULT_PAR_RATIO"]

#: degrees below ``parRatio × max`` are merged in parallel (§4.3)
DEFAULT_PAR_RATIO = 0.1


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
    # phase 1: parallel over thread ids, each bucketing its own block
    bucketed, sizes = fill_buckets(degrees, hi, T, backend)
    order = np.empty(n, dtype=np.int64)
    low_cut = int(par_ratio * hi)  # degrees 0..low_cut merged in parallel
    # Python lists keep the per-region lookups cheap: the thread rows of
    # the slot shifts, and where each low bucket starts and ends in its
    # thread's bucketed ids (bucket d spans bounds[t][d]:bounds[t][d+1])
    shift = list(order_positions(sizes, descending=True))
    bounds = np.zeros((T, low_cut + 2), dtype=np.int64)
    np.cumsum(sizes[:, :low_cut + 1], axis=1, out=bounds[:, 1:])
    bounds = bounds.tolist()

    # phase 2a: per-degree parallel regions for the low range
    for d in range(0, low_cut + 1):

        def copy_bucket(t: int, _thread: int, _d: int = d) -> None:
            scatter(order, bucketed[t], degrees, shift[t],
                    bounds[t][_d], bounds[t][_d + 1])

        parallel_for(
            T,
            copy_bucket,
            num_threads=T,
            schedule=Schedule.BLOCK,
            backend=backend,
        )
    # phase 2b: sequential copy of the high-degree tail, the end of each
    # thread's bucketed ids
    for t in range(T):
        scatter(order, bucketed[t], degrees, shift[t], bounds[t][-1])

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
    sizes = np.array([np.bincount(degrees[b], minlength=hi + 1) for b in blocks])
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
        SimResult.sequential(prefix_work, "multilists.prefix", trace)
    )

    # ---- phase 3: one region per low degree
    for d in range(0, low_cut + 1):
        per_thread = []
        for t in range(T):
            size = int(sizes[t, d])
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
    n_high = int(sizes[:, low_cut + 1:].sum())
    tail_work = n_high * costs.emit + (hi - low_cut) * T * costs.bucket_scan
    sim = sim.merge_sequential(
        SimResult.sequential(tail_work, "multilists.high-tail", trace)
    )

    return OrderingResult(
        method="multilists",
        order=exact_bucket_order(degrees).order,
        exact=True,
        num_threads=T,
        sim=sim,
        stats={
            "par_ratio": float(par_ratio),
            "low_cut_degree": float(low_cut),
            "parallel_regions": float(low_cut + 2),
        },
    )

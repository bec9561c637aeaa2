"""Algorithm 6 — **ParMax**: exact parallel bucket ordering.

Two fixes over ParBuckets (§4.2):

1. one bucket per degree value (``max+1`` buckets) instead of 101 bins —
   the order becomes *exactly* descending, no Eq. (1) arithmetic needed;
2. only vertices with ``degree >= threshold·max`` (threshold 1 %) are
   inserted in the parallel locked loop; the long power-law tail of
   low-degree vertices is inserted sequentially afterwards, dodging the
   lock pile-up on the lowest buckets.  An ``added[]`` array lets the
   sequential loop skip already-inserted vertices without recomputing
   degrees.

The win is exactness and less contention; the cost is the extra O(n)
sequential pass — which is why Figure 4 shows ParMax only marginally
faster as threads grow.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..exceptions import OrderingError
from ..parallel import Backend, LockArray, Schedule, parallel_for
from ..parallel.schedule import block_assignment
from ..simx.locksim import Op, run_lock_program
from ..simx.machine import MachineSpec
from ..simx.trace import SimResult
from .base import DEFAULT_COSTS, OrderingCosts, OrderingResult
from .buckets import _emit_descending, exact_bucket_order

__all__ = ["par_max_order", "simulate_par_max", "DEFAULT_THRESHOLD"]

#: the paper's threshold: vertices within the top 99 % of the degree
#: range (degree >= 1 % of max) go through the parallel locked loop
DEFAULT_THRESHOLD = 0.01


def _split(degrees: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean mask of vertices handled by the parallel phase."""
    if not 0.0 <= threshold <= 1.0:
        raise OrderingError(f"threshold must be in [0, 1], got {threshold}")
    hi = int(degrees.max())
    return degrees >= threshold * hi


def par_max_order(
    degrees: np.ndarray,
    *,
    num_threads: int = 1,
    threshold: float = DEFAULT_THRESHOLD,
    backend: "Backend | str" = Backend.THREADS,
    costs: OrderingCosts = DEFAULT_COSTS,
) -> OrderingResult:
    """Run ParMax for real.  Exactly descending for every backend."""
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    if n == 0:
        return OrderingResult(
            method="parmax", order=np.empty(0, dtype=np.int64), exact=True
        )
    hi = int(degrees.max())
    high_mask = _split(degrees, threshold)
    buckets: List[List[int]] = [[] for _ in range(hi + 1)]
    locks = LockArray(hi + 1)
    added = np.zeros(n, dtype=bool)

    def body(i: int, _thread: int) -> None:
        if high_mask[i]:
            d = int(degrees[i])
            with locks[d]:
                buckets[d].append(i)
            added[i] = True

    parallel_for(
        n,
        body,
        num_threads=num_threads,
        schedule=Schedule.BLOCK,
        backend=backend,
    )
    locks.publish("order.parmax.locks")
    # second loop: the low-degree tail, sequential (lines 12–16)
    for i in range(n):
        if not added[i]:
            buckets[int(degrees[i])].append(i)
    order = _emit_descending(buckets)
    return OrderingResult(
        method="parmax",
        order=order,
        exact=True,
        num_threads=num_threads,
        stats={
            "threshold": float(threshold),
            "parallel_inserts": float(high_mask.sum()),
            "sequential_inserts": float(n - high_mask.sum()),
            "lock_acquisitions": float(locks.total_acquisitions),
            "lock_contended": float(locks.total_contended),
        },
    )


def simulate_par_max(
    degrees: np.ndarray,
    machine: MachineSpec,
    *,
    num_threads: int,
    threshold: float = DEFAULT_THRESHOLD,
    costs: OrderingCosts = DEFAULT_COSTS,
    trace: bool = False,
) -> OrderingResult:
    """Play ParMax on the simulated machine.

    Virtual phases: (1) parallel locked inserts of the high-degree
    vertices — every thread still scans its whole block to *test* the
    threshold; (2) sequential ``added[]``-guarded insert of the tail;
    (3) sequential emission.  The order is the sequential reference's,
    :func:`~repro.order.buckets.exact_bucket_order`.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    T = machine.clamp_threads(num_threads)
    if n == 0:
        raise OrderingError("cannot order an empty vertex set")
    hi = int(degrees.max())
    high_mask = _split(degrees, threshold)

    programs: List[List[Op]] = []
    for block in block_assignment(n, T):
        prog: List[Op] = []
        for i in block:
            if high_mask[i]:
                # threshold test + direct bucket index, then locked append
                prog.append(
                    Op(
                        work=costs.threshold_check + costs.direct_bin,
                        lock_id=int(degrees[i]),
                        name="insert",
                    )
                )
            else:
                prog.append(Op(work=costs.threshold_check, name="scan"))
        programs.append(prog)
    phase1 = run_lock_program(
        programs,
        machine,
        num_locks=hi + 1,
        trace=trace,
        lock_names=[f"parmax.deg{d}" for d in range(hi + 1)],
        region="parmax.insert",
    )

    n_low = int(n - high_mask.sum())
    seq_work = (
        n * costs.added_check  # the `if added[i] = false` scan
        + n_low * (costs.direct_bin + costs.append)
        + n * costs.emit
        + (hi + 1) * costs.bucket_scan
    )
    sim = phase1.merge_sequential(
        SimResult.sequential(seq_work, "tail-insert+emit", trace)
    )
    return OrderingResult(
        method="parmax",
        order=exact_bucket_order(degrees).order,
        exact=True,
        num_threads=T,
        sim=sim,
        stats={
            "threshold": float(threshold),
            "parallel_inserts": float(high_mask.sum()),
            "sequential_inserts": float(n_low),
            "lock_acquisitions": float(sim.total_acquisitions),
            "lock_contended": float(sim.contended_acquisitions),
        },
    )

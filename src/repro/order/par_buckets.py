"""Algorithm 5 — **ParBuckets**: parallel approximate bucket ordering.

Every thread walks its block of vertices, computes the Eq. (1) bin and
appends the vertex to the shared ``bucketList[bin]`` under that bucket's
lock; the global ``order[]`` array is then emitted sequentially from the
highest bucket down.

Two faces, like every procedure in this package:

* :func:`par_buckets_order` — the real implementation on the serial or
  thread backend (real locks, real contention counters).
* :func:`simulate_par_buckets` — the same program played on a
  :class:`~repro.simx.MachineSpec`.  On power-law graphs nearly every
  append hits the same few low-degree buckets, so simulated makespan
  *grows* with the thread count — Table 1's ParBuckets row.
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
from .buckets import (
    _emit_descending,
    _one_degree_per_bin,
    approx_bucket_order,
    find_bins,
)

__all__ = ["par_buckets_order", "simulate_par_buckets"]


def par_buckets_order(
    degrees: np.ndarray,
    *,
    num_threads: int = 1,
    num_bins: int = 100,
    backend: "Backend | str" = Backend.THREADS,
    costs: OrderingCosts = DEFAULT_COSTS,
) -> OrderingResult:
    """Run ParBuckets for real (locks and all) and return its order.

    With ``backend="serial"`` or one thread the result is deterministic
    (ascending vertex id within each bucket); with real threads the
    within-bucket arrival order is whatever the interleaving produced —
    faithful to the OpenMP original, and exactly why the procedure is
    only *approximately* descending.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    if n == 0:
        return OrderingResult(
            method="parbuckets", order=np.empty(0, dtype=np.int64), exact=False
        )
    lo, hi = int(degrees.min()), int(degrees.max())
    bins = find_bins(degrees, hi, lo, num_bins)
    buckets: List[List[int]] = [[] for _ in range(num_bins + 1)]
    locks = LockArray(num_bins + 1)

    def body(i: int, _thread: int) -> None:
        b = int(bins[i])
        with locks[b]:
            buckets[b].append(i)

    # Algorithm 5 uses a plain `#pragma omp parallel for` — block schedule
    parallel_for(
        n,
        body,
        num_threads=num_threads,
        schedule=Schedule.BLOCK,
        backend=backend,
    )
    locks.publish("order.parbuckets.locks")
    return OrderingResult(
        method="parbuckets",
        order=_emit_descending(buckets),
        exact=_one_degree_per_bin(degrees, bins),
        num_threads=num_threads,
        stats={
            "num_bins": float(num_bins),
            "lock_acquisitions": float(locks.total_acquisitions),
            "lock_contended": float(locks.total_contended),
        },
    )


def simulate_par_buckets(
    degrees: np.ndarray,
    machine: MachineSpec,
    *,
    num_threads: int,
    num_bins: int = 100,
    costs: OrderingCosts = DEFAULT_COSTS,
    trace: bool = False,
) -> OrderingResult:
    """Play ParBuckets on the simulated machine.

    The returned order and ``exact`` flag are the sequential reference's
    (:func:`~repro.order.buckets.approx_bucket_order`: ascending vertex
    id within buckets); the virtual-time contention is computed from the
    true per-thread op streams.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    T = machine.clamp_threads(num_threads)
    if n == 0:
        raise OrderingError("cannot order an empty vertex set")
    lo, hi = int(degrees.min()), int(degrees.max())
    bins = find_bins(degrees, hi, lo, num_bins)

    programs = []
    for block in block_assignment(n, T):
        programs.append(
            [
                Op(work=costs.find_bin, lock_id=int(bins[i]), name="find-bin")
                for i in block
            ]
        )
    fill = run_lock_program(
        programs,
        machine,
        num_locks=num_bins + 1,
        trace=trace,
        lock_names=[f"parbuckets.bin{b}" for b in range(num_bins + 1)],
        region="parbuckets.fill",
    )
    sim = fill.merge_sequential(SimResult.sequential(
        n * costs.emit + (num_bins + 1) * costs.bucket_scan, "emit-order", trace
    ))
    reference = approx_bucket_order(degrees, num_bins=num_bins)
    return OrderingResult(
        method="parbuckets",
        order=reference.order,
        exact=reference.exact,
        num_threads=T,
        sim=sim,
        stats={
            "num_bins": float(num_bins),
            "lock_acquisitions": float(sim.total_acquisitions),
            "lock_contended": float(sim.contended_acquisitions),
        },
    )

"""Single-threaded reference executor.

Runs the loop body in exactly the order the requested schedule would
issue iterations with one thread — which for every schedule is plain
index order — but still reports per-"thread" assignment so callers can
unit-test scheduling math through the same interface.

Fault plans (:mod:`repro.faults`) are honoured on *virtual* workers: a
``kill`` stops one round-robin lane from claiming further work, a
``raise`` fires :class:`~repro.exceptions.FaultInjected` at its pinned
iteration, a ``stall`` sleeps.  Lost iterations are re-executed inline
under ``on_worker_death="retry"`` — which makes this backend the oracle
the crash-recovery property tests compare against.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from ...exceptions import BackendError, FaultInjected
from ...faults.inject import ThreadDeath, WorkerFaultInjector
from ...obs import metrics as _obs
from ...types import Schedule
from ..schedule import ClaimSource, static_assignment

__all__ = ["run_parallel_for", "map_through", "recover", "issue_sequence"]


def issue_sequence(
    schedule: Schedule, n: int, num_threads: int, chunk: int = 1
) -> Optional[np.ndarray]:
    """The iterations in the order a fault-free :func:`run_parallel_for`
    issues them, or ``None`` for plain index order (the dynamic
    schedule, or one worker).  A static schedule interleaves the
    workers' assignments one iteration per turn."""
    if schedule is Schedule.DYNAMIC or num_threads == 1:
        return None
    lanes = static_assignment(schedule, n, num_threads, chunk)
    turns = np.full((max(map(len, lanes)), num_threads), -1, dtype=np.int64)
    for t, lane in enumerate(lanes):
        turns[: len(lane), t] = lane
    sequence = turns.ravel()
    return sequence[sequence >= 0]


def run_parallel_for(
    n: int,
    body: Callable[[int, int], None],
    *,
    num_threads: int,
    schedule: Schedule,
    chunk: int = 1,
    fault_plan=None,
    on_worker_death: str = "raise",
    on_retry: Optional[Callable[[List[int]], None]] = None,
) -> List[List[int]]:
    """Execute ``body(i, thread_id)`` for ``i in range(n)`` serially.

    Even though execution is serial, iterations are issued in the order a
    *real* run of the requested schedule would interleave them if every
    iteration took equal time: virtual workers take turns round-robin,
    a dynamic turn running one claimed chunk and a static turn one
    iteration of the worker's assignment.  Returns the executed
    ``(thread -> iterations)`` assignment for inspection.
    """
    source = ClaimSource(schedule, n, num_threads, chunk, on_worker_death)
    plan = fault_plan.bind(num_threads) if fault_plan else None
    injectors = [WorkerFaultInjector(plan, t) for t in range(num_threads)]
    executed: List[List[int]] = [[] for _ in range(num_threads)]
    held: List[deque] = [deque() for _ in range(num_threads)]
    deaths: List[str] = []
    lost: List[Tuple[int, int]] = []  # (iteration, owning virtual worker)

    active = list(range(num_threads))
    while active:
        for t in list(active):
            mine = held[t]
            try:
                if not mine:
                    mine.extend(source.claim(t))
                    if not mine:
                        active.remove(t)
                        continue
                    injectors[t].on_claim()
                for _ in range(len(mine) if source.dynamic else 1):
                    i = mine[0]
                    injectors[t].on_iteration(i)
                    body(i, t)
                    executed[t].append(i)
                    mine.popleft()
            except (ThreadDeath, FaultInjected) as exc:
                active.remove(t)
                deaths.append(f"virtual worker {t} died: {exc!r}")
                lost.extend((i, t) for i in mine)
    # nobody lived to claim the tail of the queue
    lost.extend((i, 0) for i in source.drain())
    source.publish()
    recover(deaths, lost, body, executed, on_worker_death, on_retry)
    return executed


def recover(
    deaths: List[str],
    lost: List[Tuple[int, int]],
    body: Callable[[int, int], None],
    executed: List[List[int]],
    on_worker_death: str,
    on_retry: Optional[Callable[[List[int]], None]],
) -> None:
    """The post-death tail shared by the in-process executors.

    Counts the deaths, then raises under ``on_worker_death="raise"`` or
    re-runs every ``(iteration, worker)`` in ``lost`` inline, in index
    order, after ``on_retry`` has reset the state they may have
    half-written.
    """
    if deaths:
        _obs.counter_add("faults.worker_deaths", len(deaths))
        if on_worker_death == "raise":
            raise BackendError(
                f"{len(deaths)} worker(s) died: {deaths[0]} "
                "(set on_worker_death='retry' to re-execute lost work)"
            )
    if lost:
        lost.sort()
        _obs.counter_add("faults.recovered_indices", len(lost))
        _obs.counter_add("faults.retry_rounds")
        with _obs.span("faults.recovery"):
            if on_retry is not None:
                on_retry([i for i, _ in lost])
            for i, t in lost:
                body(i, t)
                executed[t].append(i)


def map_through(
    run: Callable[..., List[List[int]]], n: int, fn: Callable[[int], Any], **kwargs
) -> List[Any]:
    """``fn(i)`` for every ``i``, in order, through the executor ``run``."""
    results: List[Any] = [None] * n

    def body(i: int, _thread_id: int) -> None:
        results[i] = fn(i)

    run(n, body, **kwargs)
    return results

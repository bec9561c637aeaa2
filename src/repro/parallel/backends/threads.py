"""Real ``threading`` backend.

CPython's GIL serialises the bytecode of the loop bodies, so pure-Python
work shows no wall-clock speedup here; bodies that call native code do.
The fault-free APSP sweep runs one task per thread, and that task is
one call of the native kernel's claim loop (:mod:`repro.core.native`):
ctypes runs it without the GIL, and the threads claim sources from an
atomic cursor in C, so workers sweep in parallel and no claim passes
through Python.  The kernel orders its shared-state accesses itself (a
flag is loaded with acquire and stored with release semantics) rather
than relying on the GIL.  Numpy kernels inside a body also release the
GIL for large arrays.

Exceptions raised inside worker threads are captured and re-raised in the
calling thread (first one wins), so failures never vanish silently.

Worker *deaths* are a separate channel from application errors: an
injected :class:`~repro.faults.ThreadDeath` or
:class:`~repro.exceptions.FaultInjected` (see :mod:`repro.faults`) stops
one thread without aborting the others.  Under
``on_worker_death="retry"`` the iterations that thread claimed but never
finished are re-executed inline after the join — threads share the
caller's address space, so unlike the process backend there is no result
to re-collect, only side effects to complete.  ``on_worker_death="raise"``
surfaces a :class:`~repro.exceptions.BackendError` naming the thread.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Tuple

from ...exceptions import FaultInjected
from ...faults.inject import ThreadDeath, WorkerFaultInjector
from ...obs import metrics as _obs
from ...types import Schedule
from ..schedule import ClaimSource
from .serial import recover

__all__ = ["run_parallel_for"]


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
    """Execute ``body(i, thread_id)`` on ``num_threads`` real threads.

    Returns the observed per-thread iteration lists (for the dynamic
    schedule this is a genuine runtime artefact, not a precomputation).
    Iterations recovered after a worker death are appended to the dead
    thread's list — the returned lists always cover every executed
    iteration exactly once.
    """
    source = ClaimSource(schedule, n, num_threads, chunk, on_worker_death)
    plan = fault_plan.bind(num_threads) if fault_plan else None
    executed: List[List[int]] = [[] for _ in range(num_threads)]
    # indices each thread claimed (and therefore owes); claimed minus
    # executed is exactly the work a dead thread lost
    claimed: List[List[int]] = [[] for _ in range(num_threads)]
    errors: List[BaseException] = []
    deaths: List[str] = []
    state_lock = threading.Lock()

    def worker(thread_id: int) -> None:
        mine = executed[thread_id]
        owed = claimed[thread_id]
        injector = WorkerFaultInjector(plan, thread_id)
        try:
            # one wall-clock span per worker lifetime: the trace
            # recorder turns these into per-thread timeline tracks
            with _obs.span("parallel.worker"):
                while not errors:
                    items = source.claim(thread_id)
                    if not items:
                        return
                    owed.extend(items)
                    injector.on_claim()
                    for i in items:
                        if errors:
                            return
                        injector.on_iteration(i)
                        body(i, thread_id)
                        mine.append(i)
        except (ThreadDeath, FaultInjected) as exc:
            with state_lock:
                deaths.append(f"worker thread {thread_id} died: {exc!r}")
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            with state_lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(t,), name=f"repro-worker-{t}")
        for t in range(num_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    lost: List[Tuple[int, int]] = []
    if deaths:
        for t in range(num_threads):
            done = set(executed[t])
            lost.extend((i, t) for i in claimed[t] if i not in done)
        # when every worker died the dynamic counter still holds work
        # nobody ever claimed; drain it here or it would vanish silently
        lost.extend((i, 0) for i in source.drain())
    source.publish()
    # every thread is joined: re-running inline on the caller is
    # race-free and needs no fresh workers
    recover(deaths, lost, body, executed, on_worker_death, on_retry)
    return executed

"""The OpenMP-like entry points: ``parallel_for`` and ``parallel_map``.

These are the only functions the algorithm layer calls; everything else
in :mod:`repro.parallel` is plumbing.  The mapping to OpenMP is direct::

    #pragma omp parallel for schedule(dynamic, 1)
    for (i = 0; i < n; i++) body(i);

becomes::

    parallel_for(n, body, num_threads=T, schedule="dynamic", chunk=1,
                 backend="threads")

The ``SIM`` backend is intentionally *not* reachable from here: simulated
execution needs per-iteration costs, which the generic loop body cannot
provide.  Simulated algorithms go through :mod:`repro.simx.parfor`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..exceptions import BackendError
from ..types import Backend, Schedule
from .backends import process as _process
from .backends import serial as _serial
from .backends import threads as _threads

__all__ = ["parallel_for", "parallel_map"]


def parallel_for(
    n: int,
    body: Callable[[int, int], None],
    *,
    num_threads: int = 1,
    schedule: "Schedule | str" = Schedule.DYNAMIC,
    chunk: int = 1,
    backend: "Backend | str" = Backend.THREADS,
    fault_plan=None,
    on_worker_death: str = "raise",
    on_retry: Optional[Callable[[List[int]], None]] = None,
) -> List[List[int]]:
    """Run ``body(i, thread_id)`` for every ``i in range(n)``.

    The body is executed for its side effects (writes to shared arrays);
    return values are ignored.  Returns the per-thread iteration lists
    actually executed, which tests and traces use to verify scheduling.

    ``fault_plan`` / ``on_worker_death`` / ``on_retry`` configure
    deterministic fault injection and crash recovery — see
    :mod:`repro.faults`.
    """
    backend = Backend.coerce(backend)
    schedule = Schedule.coerce(schedule)
    if backend is Backend.SERIAL or num_threads == 1:
        return _serial.run_parallel_for(
            n,
            body,
            num_threads=num_threads,
            schedule=schedule,
            chunk=chunk,
            fault_plan=fault_plan,
            on_worker_death=on_worker_death,
            on_retry=on_retry,
        )
    if backend is Backend.THREADS:
        return _threads.run_parallel_for(
            n,
            body,
            num_threads=num_threads,
            schedule=schedule,
            chunk=chunk,
            fault_plan=fault_plan,
            on_worker_death=on_worker_death,
            on_retry=on_retry,
        )
    if backend is Backend.PROCESS:
        raise BackendError(
            "the process backend cannot run side-effect loop bodies "
            "(worker writes do not reach the parent); use parallel_map "
            "or the shared-memory APSP path in repro.core"
        )
    raise BackendError(
        f"backend {backend.value!r} is not valid for parallel_for; "
        "simulated execution goes through repro.simx"
    )


def parallel_map(
    n: int,
    fn: Callable[[int], Any],
    *,
    num_threads: int = 1,
    schedule: "Schedule | str" = Schedule.BLOCK,
    chunk: int = 1,
    backend: "Backend | str" = Backend.PROCESS,
    timeout: Optional[float] = None,
    fault_plan=None,
    on_worker_death: str = "raise",
    on_retry: Optional[Callable[[List[int]], None]] = None,
) -> List[Any]:
    """Evaluate ``fn(i)`` for every ``i`` and return results in order.

    ``timeout`` bounds each process round in seconds (process backend
    only); ``fault_plan`` / ``on_worker_death`` / ``on_retry`` configure
    fault injection and crash recovery — see :mod:`repro.faults`.
    """
    backend = Backend.coerce(backend)
    schedule = Schedule.coerce(schedule)
    if backend is Backend.PROCESS:
        return _process.run_parallel_map(
            n,
            fn,
            num_threads=num_threads,
            schedule=schedule,
            chunk=chunk,
            timeout=timeout,
            fault_plan=fault_plan,
            on_worker_death=on_worker_death,
            on_retry=on_retry,
        )
    if backend is Backend.SERIAL or num_threads == 1:
        run = _serial.run_parallel_for
    elif backend is Backend.THREADS:
        run = _threads.run_parallel_for
    else:
        raise BackendError(
            f"backend {backend.value!r} is not valid for parallel_map"
        )
    return _serial.map_through(
        run,
        n,
        fn,
        num_threads=num_threads,
        schedule=schedule,
        chunk=chunk,
        fault_plan=fault_plan,
        on_worker_death=on_worker_death,
        on_retry=on_retry,
    )

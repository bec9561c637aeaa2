"""``multiprocessing`` backend.

This is the backend that can actually run Python loop bodies in parallel
on a multi-core host (each worker is a separate interpreter, no shared
GIL).  Two usage modes:

* :func:`run_parallel_map` — a generic fork-based map: the body computes
  a picklable result per iteration; mutations of parent memory do *not*
  propagate back.  Fork inheritance means closures over large read-only
  numpy arrays (the CSR graph) cost nothing to ship.
* Shared-state algorithms (the APSP distance matrix and flags) instead
  allocate their arrays in :class:`SharedArray` so all workers write the
  same physical pages, mirroring the paper's shared-memory design.

Crash safety (ISSUE 4): the parent never blocks on a single pipe.  It
multiplexes result pipes *and* process sentinels through
``multiprocessing.connection.wait``, so an OOM-killed or segfaulted
worker is detected the moment its process object becomes ready instead
of hanging ``conn.recv()`` forever.  A dead pipe, undecodable (corrupt)
pipe data, a worker that exits without reporting, or a worker that
exceeds ``timeout`` all classify as a *worker death*; the
``on_worker_death`` policy then either surfaces a
:class:`~repro.exceptions.BackendError` naming the worker (``"raise"``)
or re-executes only the lost index ranges on fresh workers
(``"retry"``, bounded rounds with backoff).  Application exceptions
raised by ``fn`` itself are *not* deaths — they always surface.  All
processes are joined (terminated if necessary) and all pipes closed in
``finally``, so no path leaks zombies.

Deterministic fault injection (:mod:`repro.faults`) hooks the worker
entry point: a bound :class:`~repro.faults.WorkerFaultInjector` can
SIGKILL the worker's own process after m claims, stall it, corrupt its
result pipe, or raise inside ``fn`` — all counted in claims/iterations,
never wall time.

On platforms without ``fork`` (Windows), and at one worker, the map
runs on the serial backend's loop instead (fault plan included) rather
than failing.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from contextlib import contextmanager
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ...exceptions import BackendError, FaultInjected
from ...faults.inject import WorkerFaultInjector
from ...obs import metrics as _obs
from ...types import Schedule
from ..schedule import ClaimSource, check_loop
from . import serial as _serial

__all__ = ["fork_available", "run_parallel_map", "SharedArray"]

#: seconds to wait for a reaped worker before escalating to terminate()
_JOIN_GRACE = 5.0

#: default bounded-retry budget for ``on_worker_death="retry"``
DEFAULT_MAX_RETRIES = 3

#: base backoff before retry round r (doubles per round)
DEFAULT_RETRY_BACKOFF = 0.05


def fork_available() -> bool:
    """True when the ``fork`` start method exists (Linux/macOS)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _worker(fn, source, worker: int, conn, injector) -> None:
    """Child entry: evaluate every index ``worker`` claims from ``source``.

    A static assignment is one claim; dynamic claims come from a counter
    in shared memory, so the claim is atomic across processes.  Fault
    hooks run *after* the claim, so a killed worker takes its
    claimed-but-unexecuted indices down with it — exactly the lost-work
    shape recovery has to handle.
    """
    out: List[Tuple[int, Any]] = []
    try:
        while True:
            items = source.claim(worker)
            if not items:
                break
            injector.on_claim(conn)
            for i in items:
                injector.on_iteration(i)
                out.append((i, fn(i)))
        conn.send(("ok", out))
    except FaultInjected as exc:
        # injected failures are recoverable worker deaths, not bugs;
        # ship the partial results so only the rest is re-executed
        conn.send(("fault", (repr(exc), out)))
    except BaseException as exc:  # noqa: BLE001 — shipped to parent
        conn.send(("error", repr(exc)))
    finally:
        conn.close()


def _drain_worker(
    conn,
    worker: int,
    proc,
    results: List[Any],
    have: bytearray,
    deaths: List[str],
    errors: List[str],
) -> None:
    """Consume one worker's (single) result message, classifying it.

    A closed pipe (``EOFError``/``OSError``), undecodable pipe bytes,
    or a worker that exited without reporting are worker deaths; an
    explicit ``("error", ...)`` message is an application failure.
    """
    try:
        if conn.poll(0):
            status, payload = conn.recv()
        else:
            deaths.append(
                f"worker {worker} died before reporting "
                f"(exitcode {proc.exitcode})"
            )
            return
    except (EOFError, OSError) as exc:
        deaths.append(
            f"worker {worker} result pipe closed mid-message "
            f"({type(exc).__name__})"
        )
        return
    except Exception as exc:  # corrupt pipe: unpicklable bytes
        deaths.append(
            f"worker {worker} sent undecodable pipe data "
            f"({type(exc).__name__}: {exc})"
        )
        return
    if status == "ok":
        for i, value in payload:
            results[i] = value
            have[i] = 1
    elif status == "fault":
        reason, partial = payload
        for i, value in partial:
            results[i] = value
            have[i] = 1
        deaths.append(f"worker {worker} hit an injected fault: {reason}")
    else:
        errors.append(payload)


def _execute_round(
    procs: List,
    conns: List,
    results: List[Any],
    have: bytearray,
    timeout: Optional[float],
) -> Tuple[List[str], List[str]]:
    """Collect every worker's result or death; never hangs, never leaks.

    Multiplexes result pipes and process sentinels with
    ``multiprocessing.connection.wait`` so a crashed worker is noticed
    immediately; enforces ``timeout`` (seconds for the whole round) by
    terminating stragglers.  Joins/terminates all processes and closes
    all pipes in ``finally``.
    """
    deaths: List[str] = []
    errors: List[str] = []
    pending: Dict[Any, int] = {conn: w for w, conn in enumerate(conns)}
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while pending:
            sentinel_of = {procs[w].sentinel: w for w in pending.values()}
            waitables = list(pending) + list(sentinel_of)
            if deadline is None:
                ready = _conn_wait(waitables)
            else:
                budget = deadline - time.monotonic()
                ready = _conn_wait(waitables, timeout=max(0.0, budget))
                if not ready:
                    for conn, w in sorted(
                        pending.items(), key=lambda kv: kv[1]
                    ):
                        procs[w].terminate()
                        deaths.append(
                            f"worker {w} exceeded the {timeout:g}s timeout"
                        )
                        _obs.counter_add("faults.worker_timeouts")
                    pending.clear()
                    break
            for obj in ready:
                if obj in pending:
                    w = pending.pop(obj)
                    _drain_worker(
                        obj, w, procs[w], results, have, deaths, errors
                    )
                else:
                    w = sentinel_of.get(obj)
                    if w is None:
                        continue
                    conn = conns[w]
                    if conn in pending:  # died; pipe may hold a message
                        pending.pop(conn)
                        _drain_worker(
                            conn, w, procs[w], results, have, deaths,
                            errors,
                        )
    finally:
        for proc in procs:
            proc.join(timeout=_JOIN_GRACE)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_JOIN_GRACE)
            if proc.is_alive():  # pragma: no cover — terminate ignored
                proc.kill()
                proc.join()
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover — already closed
                pass
    return deaths, errors


def _spawn(ctx, fn, source: ClaimSource, plan, round: int) -> Tuple[List, List]:
    """One unstarted worker process per ``source`` worker, with its pipe."""
    procs, conns = [], []
    for w in range(source.num_threads):
        injector = WorkerFaultInjector(plan, w, round=round, hard=True)
        parent, child = ctx.Pipe(duplex=False)
        procs.append(
            ctx.Process(target=_worker, args=(fn, source, w, child, injector))
        )
        conns.append(parent)
    return procs, conns


def run_parallel_map(
    n: int,
    fn: Callable[[int], Any],
    *,
    num_threads: int,
    schedule: Schedule = Schedule.BLOCK,
    chunk: int = 1,
    timeout: Optional[float] = None,
    on_worker_death: str = "raise",
    max_retries: int = DEFAULT_MAX_RETRIES,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    fault_plan=None,
    on_retry: Optional[Callable[[List[int]], None]] = None,
) -> List[Any]:
    """Evaluate ``fn(i)`` for ``i in range(n)`` across worker processes.

    Workers are raw ``fork`` processes, not a ``Pool``: fork inheritance
    lets ``fn`` be any closure (e.g. over a CSR graph) without pickling
    it; only the *results* cross the process boundary, so they must be
    picklable.  Results come back ordered by index.

    Crash policy: ``on_worker_death="raise"`` (default) surfaces a
    :class:`BackendError` naming the dead worker; ``"retry"``
    re-executes only the indices that never produced a result, on fresh
    workers, for at most ``max_retries`` rounds with exponential
    ``retry_backoff``.  ``on_retry`` (if given) is called with the lost
    index list before each retry round so shared state those indices
    may have half-written can be reset.  ``timeout`` bounds each round
    in seconds; stragglers are terminated and handled by the same
    policy.  ``fault_plan`` (a :class:`repro.faults.FaultPlan`) injects
    deterministic faults into the workers — see :mod:`repro.faults`.
    """
    check_loop(n, num_threads, chunk, on_worker_death)
    if max_retries < 0:
        raise BackendError(f"max_retries must be >= 0, got {max_retries}")
    if timeout is not None and timeout <= 0:
        raise BackendError(f"timeout must be positive, got {timeout!r}")
    if n == 0:
        return []
    if num_threads == 1 or not fork_available():
        return _serial.map_through(
            _serial.run_parallel_for,
            n,
            fn,
            num_threads=num_threads,
            schedule=schedule,
            chunk=chunk,
            fault_plan=fault_plan,
            on_worker_death=on_worker_death,
            on_retry=on_retry,
        )

    plan = fault_plan.bind(num_threads) if fault_plan else None
    ctx = multiprocessing.get_context("fork")
    results: List[Any] = [None] * n
    have = bytearray(n)

    source = ClaimSource(schedule, n, num_threads, chunk, ctx=ctx)
    procs, conns = _spawn(ctx, fn, source, plan, 0)
    for proc in procs:
        proc.start()
    deaths, errors = _execute_round(procs, conns, results, have, timeout)
    if errors:
        raise BackendError(
            f"{len(errors)} worker process(es) failed: {errors[0]}"
        )
    if deaths:
        _obs.counter_add("faults.worker_deaths", len(deaths))
        if on_worker_death == "raise":
            raise BackendError(
                f"{len(deaths)} worker process(es) died: {deaths[0]} "
                "(set on_worker_death='retry' to re-execute lost work)"
            )

    missing = [i for i in range(n) if not have[i]]
    if missing:
        _obs.counter_add("faults.recovered_indices", len(missing))
    rounds = 0
    while missing:
        if rounds >= max_retries:
            raise BackendError(
                f"{len(missing)} index(es) still unrecovered after "
                f"{max_retries} retry round(s); first death: {deaths[0]}"
            )
        rounds += 1
        _obs.counter_add("faults.retry_rounds")
        with _obs.span("faults.recovery"):
            if on_retry is not None:
                on_retry(list(missing))
            if retry_backoff > 0:
                time.sleep(retry_backoff * (2 ** (rounds - 1)))
            source = ClaimSource.recovery(
                missing, min(num_threads, len(missing))
            )
            procs, conns = _spawn(ctx, fn, source, plan, rounds)
            for proc in procs:
                proc.start()
            deaths, errors = _execute_round(
                procs, conns, results, have, timeout
            )
        if errors:
            raise BackendError(
                f"{len(errors)} worker process(es) failed during "
                f"recovery: {errors[0]}"
            )
        if deaths:
            _obs.counter_add("faults.worker_deaths", len(deaths))
        missing = [i for i in missing if not have[i]]
    return results


def _release_segment(shm, owner_pid: int) -> None:
    """Finalizer: unlink a segment, but only in the process that owns it.

    Fork children inherit the :class:`SharedArray` object; without the
    pid guard a child's interpreter shutdown would unlink a segment the
    parent is still using.
    """
    if os.getpid() != owner_pid:
        return
    try:
        shm.close()
        shm.unlink()
    except (FileNotFoundError, OSError, BufferError):  # pragma: no cover
        pass


class SharedArray:
    """A numpy array living in ``multiprocessing.shared_memory``.

    Construction allocates the segment in the parent; workers created by
    fork inherit the mapping directly (writes are visible both ways).
    :meth:`close` unlinks the segment — use the :func:`SharedArray.allocate`
    context manager in library code so segments never leak.  Allocation
    is exception-safe (a failing ``np.ndarray`` view unlinks the fresh
    segment before re-raising) and a pid-guarded ``weakref`` finalizer
    reclaims the segment even when an abnormal exit path skips
    :meth:`close`.
    """

    def __init__(self, shape: Tuple[int, ...], dtype=np.float64) -> None:
        from multiprocessing import shared_memory

        if any(int(s) < 0 for s in shape):
            raise BackendError("array dimensions must be non-negative")
        try:
            dtype = np.dtype(dtype)
        except TypeError as exc:
            raise BackendError(f"bad shared-array dtype: {exc}") from None
        if dtype.hasobject:
            raise BackendError(
                "shared arrays need a fixed-size plain dtype, "
                f"got {dtype!r} (object references cannot cross processes)"
            )
        size = int(np.prod(shape)) if shape else 1
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, size * dtype.itemsize)
        )
        self._closed = False
        try:
            self.array = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf)
        except BaseException:
            self._closed = True
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            raise
        self._finalizer = weakref.finalize(
            self, _release_segment, self._shm, os.getpid()
        )

    @classmethod
    @contextmanager
    def allocate(
        cls, shape: Tuple[int, ...], dtype=np.float64
    ) -> Iterator["SharedArray"]:
        arr = cls(shape, dtype)
        try:
            yield arr
        finally:
            arr.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # drop the array view before releasing the buffer
        self.array = None  # type: ignore[assignment]
        self._finalizer.detach()
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked elsewhere
            pass

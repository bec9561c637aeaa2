"""Loop-iteration scheduling policies (the OpenMP ``schedule`` clause).

The paper's Figure 1 shows that the choice between the default *block*
partitioning, ``schedule(static, 1)`` (static-cyclic) and
``schedule(dynamic, 1)`` (dynamic-cyclic) changes ParAlg2's runtime
substantially, because the optimized algorithm's benefit depends on
issuing SSSP sources in (approximately) descending-degree order.

This module provides the *static* assignment math used by every backend
and by the simulator.  Dynamic scheduling has no static assignment — the
mapping from iterations to threads emerges at runtime — so it is
expressed as a shared work counter (:class:`DynamicCounter`).  Every
executor draws its work from one :class:`ClaimSource`, which also holds
the one validation of a loop's shape (:func:`check_loop`).
"""

from __future__ import annotations

import ctypes
import threading
from typing import List, Sequence

import numpy as np

from ..exceptions import ConfigError, ScheduleError
from ..obs import metrics as _obs
from ..types import Schedule

__all__ = [
    "block_assignment",
    "static_cyclic_assignment",
    "static_assignment",
    "check_loop",
    "ClaimSource",
    "DynamicCounter",
    "publish_dynamic",
]


def check_loop(
    n: int, num_threads: int, chunk: int = 1, on_worker_death: str = "raise"
) -> None:
    """Validate a parallel loop before any executor runs it.

    Raises :class:`~repro.exceptions.ConfigError`, which is both a
    :class:`~repro.exceptions.ScheduleError` and a
    :class:`~repro.exceptions.BackendError`.
    """
    if n < 0:
        raise ConfigError(f"iteration count must be >= 0, got {n}")
    if num_threads < 1:
        raise ConfigError(f"num_threads must be >= 1, got {num_threads}")
    if chunk < 1:
        raise ConfigError(
            f"chunk must be >= 1, got {chunk} (a non-positive chunk "
            "would make dynamic workers spin forever)"
        )
    if on_worker_death not in ("retry", "raise"):
        raise ConfigError(
            f"on_worker_death must be 'retry' or 'raise', "
            f"got {on_worker_death!r}"
        )


def block_assignment(n: int, num_threads: int) -> List[np.ndarray]:
    """OpenMP default: split ``range(n)`` into ``num_threads`` contiguous
    blocks, the first ``n % num_threads`` blocks one element longer.

    Returns one int64 index array per thread (possibly empty).
    """
    check_loop(n, num_threads)
    base, extra = divmod(n, num_threads)
    out: List[np.ndarray] = []
    start = 0
    for t in range(num_threads):
        size = base + (1 if t < extra else 0)
        out.append(np.arange(start, start + size, dtype=np.int64))
        start += size
    return out


def static_cyclic_assignment(
    n: int, num_threads: int, chunk: int = 1
) -> List[np.ndarray]:
    """``schedule(static, chunk)``: chunks dealt round-robin to threads.

    With ``chunk=1`` thread ``t`` gets iterations ``t, t+T, t+2T, ...`` —
    the static-cyclic scheme of the paper.
    """
    check_loop(n, num_threads, chunk)
    out: List[List[int]] = [[] for _ in range(num_threads)]
    pos = 0
    t = 0
    while pos < n:
        end = min(pos + chunk, n)
        out[t].extend(range(pos, end))
        pos = end
        t = (t + 1) % num_threads
    return [np.asarray(ix, dtype=np.int64) for ix in out]


def static_assignment(
    schedule: "Schedule | str", n: int, num_threads: int, chunk: int = 1
) -> List[np.ndarray]:
    """Static per-thread assignment for ``BLOCK`` / ``STATIC_CYCLIC``.

    Raises :class:`ScheduleError` for ``DYNAMIC``, which has no static
    assignment — use :class:`DynamicCounter` (real backends) or the
    simulator's event loop instead.
    """
    schedule = Schedule.coerce(schedule)
    if schedule is Schedule.BLOCK:
        return block_assignment(n, num_threads)
    if schedule is Schedule.STATIC_CYCLIC:
        return static_cyclic_assignment(n, num_threads, chunk)
    raise ScheduleError(
        "dynamic schedule has no static assignment; use DynamicCounter"
    )


def publish_dynamic(
    claims: int, iterations: int, prefix: str = "schedule.dynamic"
) -> None:
    """Report a dynamic loop's claim statistics to the installed
    metrics registry: non-empty chunk claims and iterations."""
    reg = _obs._current
    if reg is not None:
        reg.add(f"{prefix}.claims", claims)
        reg.add(f"{prefix}.iterations", iterations)


class DynamicCounter:
    """Shared fetch-and-add work counter for ``schedule(dynamic, chunk)``.

    Threads repeatedly call :meth:`next_chunk` and process the returned
    half-open range until it is empty.  With ``chunk=1`` iterations are
    handed out strictly in index order — exactly the property the paper
    relies on to preserve the descending-degree issue order (§3.2).
    """

    __slots__ = ("_n", "_chunk", "_next", "_lock", "claims")

    def __init__(self, n: int, chunk: int = 1, *, ctx=None) -> None:
        check_loop(n, 1, chunk)
        self._n = n
        self._chunk = chunk
        # a multiprocessing context puts the cursor and its lock in
        # shared memory, so forked workers claim from one counter
        if ctx is None:
            self._next = ctypes.c_long(0)
            self._lock = threading.Lock()
        else:
            self._next = ctx.RawValue("l", 0)
            self._lock = ctx.Lock()
        #: successful (non-empty) chunk claims — the dynamic scheduler's
        #: dispatch count, published as ``schedule.dynamic.claims``
        self.claims = 0

    @property
    def n(self) -> int:
        return self._n

    @property
    def chunk(self) -> int:
        return self._chunk

    def next_chunk(self) -> range:
        """Claim the next chunk; empty range means the loop is drained."""
        with self._lock:
            start = self._next.value
            if start >= self._n:
                return range(self._n, self._n)
            end = min(start + self._chunk, self._n)
            self._next.value = end
            self.claims += 1
        return range(start, end)

    def publish(self, prefix: str = "schedule.dynamic") -> None:
        """Report claim statistics to the installed metrics registry."""
        publish_dynamic(self.claims, self._n, prefix)

    def remaining(self) -> int:
        with self._lock:
            return max(0, self._n - self._next.value)


class ClaimSource:
    """Where every executor's workers get their work.

    A static schedule's whole per-worker assignment is one claim; the
    dynamic schedule hands out :class:`DynamicCounter` chunks in index
    order.  An empty claim means the worker is drained.  Construction
    runs :func:`check_loop`; ``ctx`` (a multiprocessing context) shares
    the dynamic counter with forked workers.
    """

    __slots__ = ("num_threads", "dynamic", "_counter", "_static")

    def __init__(
        self,
        schedule: "Schedule | str",
        n: int,
        num_threads: int,
        chunk: int = 1,
        on_worker_death: str = "raise",
        *,
        ctx=None,
    ) -> None:
        check_loop(n, num_threads, chunk, on_worker_death)
        schedule = Schedule.coerce(schedule)
        self.num_threads = num_threads
        self.dynamic = schedule is Schedule.DYNAMIC
        self._counter = None
        self._static: List[List[int]] = []
        if self.dynamic:
            self._counter = DynamicCounter(n, chunk, ctx=ctx)
        else:
            assignment = static_assignment(schedule, n, num_threads, chunk)
            self._static = [a.tolist() for a in assignment]

    @classmethod
    def recovery(cls, lost: Sequence[int], num_threads: int) -> "ClaimSource":
        """Block claims over the ``lost`` indices (a process retry round)."""
        source = cls(Schedule.BLOCK, len(lost), num_threads)
        source._static = [[lost[p] for p in a] for a in source._static]
        return source

    def claim(self, worker: int) -> Sequence[int]:
        """The next indices ``worker`` owes; empty when it is drained."""
        if self._counter is not None:
            return self._counter.next_chunk()
        mine, self._static[worker] = self._static[worker], []
        return mine

    def drain(self) -> List[int]:
        """Claim everything still unclaimed (work no worker lived to take)."""
        out: List[int] = []
        for worker in range(self.num_threads):
            while items := self.claim(worker):
                out.extend(items)
        return out

    def publish(self) -> None:
        """Report dynamic claim statistics (static claims report none)."""
        if self._counter is not None:
            self._counter.publish()

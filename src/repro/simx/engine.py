"""Minimal deterministic discrete-event core.

The simulator's loops all reduce to the same pattern: a set of virtual
threads, each with a clock, where the globally-earliest thread acts
next.  :class:`ThreadClockQueue` provides that with deterministic
tie-breaking (lowest thread id first), which keeps every simulation
bit-reproducible across runs and platforms.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from ..exceptions import SimulationError

__all__ = ["ThreadClockQueue"]


class ThreadClockQueue:
    """Priority queue of ``(clock, thread_id)`` with stable ordering.

    The queue counts its own churn (``pops`` / ``advances`` / skipped
    stale entries) so the observability layer can report how much
    dispatcher work a simulated schedule generated; plain integer
    increments keep the event loop's cost unchanged.
    """

    __slots__ = ("_heap", "_clocks", "pops", "advances", "stale_skips")

    def __init__(self, num_threads: int, start_time: float = 0.0) -> None:
        if num_threads < 1:
            raise SimulationError(f"need >= 1 thread, got {num_threads}")
        self._clocks: List[float] = [start_time] * num_threads
        self._heap: List[Tuple[float, int]] = [
            (start_time, t) for t in range(num_threads)
        ]
        heapq.heapify(self._heap)
        self.pops = 0
        self.advances = 0
        self.stale_skips = 0

    def __len__(self) -> int:
        return len(self._heap)

    def pop_earliest(self) -> Tuple[float, int]:
        """Remove and return the thread with the smallest clock.

        Stale heap entries (from re-pushes) are skipped by comparing with
        the authoritative clock table.
        """
        while self._heap:
            time, thread = heapq.heappop(self._heap)
            if time == self._clocks[thread]:
                self.pops += 1
                return time, thread
            self.stale_skips += 1
        raise SimulationError("pop from drained thread queue")

    def advance(self, thread: int, new_time: float) -> None:
        """Move a thread's clock forward and requeue it."""
        if new_time < self._clocks[thread]:
            raise SimulationError(
                f"thread {thread} clock would go backwards: "
                f"{self._clocks[thread]} -> {new_time}"
            )
        self._clocks[thread] = new_time
        self.advances += 1
        heapq.heappush(self._heap, (new_time, thread))

    def wake(self, thread: int, time: float) -> None:
        """Requeue a thread parked at ``+inf`` (see :meth:`advance`) at ``time``."""
        if self._clocks[thread] != float("inf"):
            raise SimulationError(f"thread {thread} is not parked")
        self._clocks[thread] = time
        self.advances += 1
        heapq.heappush(self._heap, (time, thread))

    def clock(self, thread: int) -> float:
        return self._clocks[thread]

    def clocks(self) -> List[float]:
        return list(self._clocks)

    @property
    def latest(self) -> float:
        return max(self._clocks)

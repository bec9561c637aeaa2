"""Execution-trace records produced by the simulator.

Every simulated run returns a :class:`SimResult`; analyses that need to
see *why* a makespan came out the way it did (Gantt-style inspection,
contention attribution) enable tracing and get :class:`TraceEvent`
records per executed item.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

import numpy as np

from ..exceptions import SimulationError

__all__ = ["EVENT_KINDS", "TraceEvent", "SimResult"]

#: the event kinds a simulator may emit; anything else is rejected so a
#: typo'd kind cannot silently fall through downstream attribution.
#: "fault" marks injected misbehaviour (deaths, stalls) from
#: :mod:`repro.faults` so recovery phases are visible in every viewer.
EVENT_KINDS = ("iter", "lock-wait", "lock-hold", "overhead", "fault")


@dataclass(frozen=True)
class TraceEvent:
    """One simulated unit of work (a loop iteration or a lock section).

    ``label`` names the event source for attribution: the lock's
    human-readable name for lock events (``"parbuckets.bin17"``), or the
    overhead flavour (``"fork-join"`` / ``"dispatch"`` / ``"handoff"``)
    for overhead events.  Empty means "derive a name from item/kind".
    """

    item: int  # iteration index, or lock id for lock events
    thread: int
    start: float
    end: float
    kind: str = "iter"  # one of EVENT_KINDS
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(
                f"trace event ends before it starts: {self}"
            )
        if self.kind not in EVENT_KINDS:
            raise SimulationError(
                f"unknown trace event kind {self.kind!r}; "
                f"expected one of {EVENT_KINDS}"
            )
        if self.thread < 0:
            raise SimulationError(
                f"trace event thread must be >= 0, got {self.thread}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def name(self) -> str:
        """Display name: the explicit label, or one derived from kind."""
        if self.label:
            return self.label
        if self.kind == "iter":
            return f"iter {self.item}"
        if self.kind in ("lock-wait", "lock-hold"):
            return f"lock_{self.item}"
        return self.kind


@dataclass
class SimResult:
    """Outcome of one simulated parallel region (or whole algorithm).

    ``makespan`` is the virtual elapsed time of the region: the latest
    per-thread finish time.  ``busy`` is per-thread useful work;
    ``overhead`` is per-thread time lost to fork/join, dispatch, lock
    waits and handoffs.  Conservation: for every thread,
    ``busy + overhead + idle == makespan``.
    """

    num_threads: int
    makespan: float
    busy: np.ndarray  # float64[num_threads]
    overhead: np.ndarray  # float64[num_threads]
    events: List[TraceEvent] = field(default_factory=list)
    #: number of lock acquisitions that had to wait (contended)
    contended_acquisitions: int = 0
    #: total lock acquisitions
    total_acquisitions: int = 0
    #: free-form provenance (schedule policy, chunk size, region name);
    #: carried into the unified trace so attribution never has to guess
    #: which policy produced a timeline
    meta: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.busy = np.asarray(self.busy, dtype=np.float64)
        self.overhead = np.asarray(self.overhead, dtype=np.float64)
        if self.busy.shape != (self.num_threads,):
            raise SimulationError("busy vector shape mismatch")
        if self.overhead.shape != (self.num_threads,):
            raise SimulationError("overhead vector shape mismatch")
        if self.makespan < 0:
            raise SimulationError("negative makespan")
        slack = 1e-6 * max(1.0, self.makespan)
        if np.any(self.busy + self.overhead > self.makespan + slack):
            raise SimulationError(
                "thread busy+overhead exceeds makespan: "
                f"{(self.busy + self.overhead).max()} > {self.makespan}"
            )

    @classmethod
    def sequential(
        cls, work: float, label: str = "", trace: bool = False
    ) -> "SimResult":
        """A sequential phase: one thread busy for ``work`` units.  With
        ``trace`` and positive work it carries one event named ``label``."""
        return cls(
            num_threads=1,
            makespan=work,
            busy=np.array([work]),
            overhead=np.array([0.0]),
            events=(
                [TraceEvent(0, 0, 0.0, work, label=label)]
                if trace and work > 0 else []
            ),
        )

    @property
    def idle(self) -> np.ndarray:
        """Per-thread idle time (load imbalance + waiting at the join)."""
        return self.makespan - self.busy - self.overhead

    @property
    def total_busy(self) -> float:
        return float(self.busy.sum())

    @property
    def total_overhead(self) -> float:
        return float(self.overhead.sum())

    @property
    def utilization(self) -> float:
        """Fraction of thread-time spent on useful work."""
        if self.makespan == 0:
            return 1.0
        return self.total_busy / (self.makespan * self.num_threads)

    def as_metrics(self, prefix: str = "sim") -> Dict[str, float]:
        """Flat gauge mapping for the :mod:`repro.obs` artifact layer."""
        return {
            f"{prefix}.threads": float(self.num_threads),
            f"{prefix}.makespan": float(self.makespan),
            f"{prefix}.busy_total": self.total_busy,
            f"{prefix}.overhead_total": self.total_overhead,
            f"{prefix}.idle_total": float(self.idle.sum()),
            f"{prefix}.utilization": float(self.utilization),
            f"{prefix}.lock_acquisitions": float(self.total_acquisitions),
            f"{prefix}.lock_contended": float(self.contended_acquisitions),
        }

    def merge_sequential(self, other: "SimResult") -> "SimResult":
        """Concatenate two phases executed back to back.

        Thread counts may differ (e.g. a sequential ordering phase
        followed by a parallel Dijkstra phase); the result reports the
        wider thread count, padding the narrower phase's vectors.
        Events keep their kind and label, shifted by this phase's
        makespan.  ``meta`` keys merge with the earlier phase winning on
        collision (the region that started the timeline names it).
        """
        width = max(self.num_threads, other.num_threads)

        def pad(arr: np.ndarray) -> np.ndarray:
            out = np.zeros(width)
            out[: arr.size] = arr
            return out

        offset = self.makespan
        shifted = [
            replace(e, start=e.start + offset, end=e.end + offset)
            for e in other.events
        ]
        return SimResult(
            num_threads=width,
            makespan=self.makespan + other.makespan,
            busy=pad(self.busy) + pad(other.busy),
            overhead=pad(self.overhead) + pad(other.overhead),
            events=[*self.events, *shifted],
            contended_acquisitions=(
                self.contended_acquisitions + other.contended_acquisitions
            ),
            total_acquisitions=self.total_acquisitions + other.total_acquisitions,
            meta={**other.meta, **self.meta},
        )

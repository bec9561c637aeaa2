"""Wall-clock trace recording through the ``repro.obs`` span hook.

A :class:`TraceRecorder` *is* a :class:`~repro.obs.metrics.MetricsRegistry`
— install it with :func:`repro.obs.use_registry` and every
:func:`repro.obs.span` section the instrumented code already emits
(``apsp.ordering``, ``apsp.dijkstra``, ``parallel.worker``,
``sweep.block`` for one native claim loop, ``sweep.source`` for one
source of the Python fallback or of a fault-plan run, ...) is
additionally captured with the OS thread it ran on.  Because the hook
is the existing no-op-by-default one, hot paths pay nothing unless a
recorder is installed.

:meth:`TraceRecorder.to_trace` lays the captured sections out as a
unified :class:`~repro.trace.model.Trace` on the wall clock, one track
per OS thread in first-seen order, normalised so the earliest span
starts at t=0.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Tuple

from ..obs.metrics import MetricsRegistry, SpanRecord
from .model import PhaseStats, Trace, TraceSpan

__all__ = ["TraceRecorder"]

#: span paths whose first segment matches get folded into a named phase
_PHASE_ROOTS = ("apsp.ordering", "apsp.dijkstra", "apsp.shard", "serve")


class TraceRecorder(MetricsRegistry):
    """A metrics registry that also captures spans as timeline records."""

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        super().__init__(clock)
        self._timeline: List[Tuple[SpanRecord, int, str]] = []

    def _record_span(self, record: SpanRecord) -> None:
        super()._record_span(record)
        thread = threading.current_thread()
        with self._lock:
            self._timeline.append((record, thread.ident or 0, thread.name))

    @property
    def timeline(self) -> List[Tuple[SpanRecord, int, str]]:
        with self._lock:
            return list(self._timeline)

    def to_trace(self) -> Trace:
        """The captured spans as a wall-clock unified trace."""
        timeline = self.timeline
        if not timeline:
            raise ValueError(
                "no spans recorded — install the recorder with "
                "use_registry() around the measured code"
            )
        t0 = min(rec.start for rec, _, _ in timeline)
        horizon = max(rec.start + rec.duration for rec, _, _ in timeline)
        tracks: Dict[int, int] = {}
        names: Dict[int, str] = {}
        spans: List[TraceSpan] = []
        for rec, ident, thread_name in timeline:
            track = tracks.setdefault(ident, len(tracks))
            names.setdefault(track, thread_name)
            spans.append(
                TraceSpan(
                    name=rec.path,
                    category="compute",
                    track=track,
                    start=rec.start - t0,
                    duration=rec.duration,
                    phase=_phase_of(rec.path),
                )
            )
        spans.sort(key=lambda s: (s.start, s.track))
        makespan = horizon - t0
        return Trace(
            clock="wall",
            num_tracks=len(tracks),
            makespan=makespan,
            spans=spans,
            phases=_wall_phases(spans, len(tracks)),
            track_names=names,
            meta={"recorder": "repro.trace.TraceRecorder"},
        )


def _phase_of(path: str) -> str:
    for root in _PHASE_ROOTS:
        if path == root or path.startswith(root + "."):
            return root.rsplit(".", 1)[-1]
    return ""


def _wall_phases(spans: List[TraceSpan], tracks: int) -> List[PhaseStats]:
    """Phase extents from the top-level ``apsp.*`` spans.

    Wall phases only know span coverage (there is no simulator to hand
    us exact overhead/idle), so ``busy`` is the leaf compute time inside
    the phase window and the remainder of ``makespan × tracks`` is
    reported as idle — an upper bound that still exposes imbalance.
    """
    out: List[PhaseStats] = []
    for phase in ("ordering", "dijkstra"):
        inside = [s for s in spans if s.phase == phase]
        if not inside:
            continue
        start = min(s.start for s in inside)
        end = max(s.end for s in inside)
        # leaf spans only: a nested span's time is already inside its
        # parent, so count spans with no child starting within them on
        # the same track... wall spans nest by path depth instead
        max_depth = max(s.name.count(".") for s in inside)
        leaves = [s for s in inside if s.name.count(".") == max_depth]
        busy = sum(s.duration for s in leaves)
        makespan = end - start
        idle = max(0.0, makespan * tracks - busy)
        out.append(
            PhaseStats(
                name=phase,
                start=start,
                makespan=makespan,
                tracks=tracks,
                busy=busy,
                overhead=0.0,
                idle=idle,
            )
        )
    return out

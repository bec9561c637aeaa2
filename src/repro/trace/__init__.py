"""Unified execution tracing (ISSUE 3).

One trace model for both timing domains the reproduction produces —
virtual-time simulator events and wall-clock ``repro.obs`` spans —
with Chrome-trace (Perfetto) export, critical-path / contention
analysis, and a ``trace_summary`` artifact section gated in CI.

Typical use::

    from repro.core.runner import solve_apsp
    from repro.trace import trace_from_apsp_result, analyze_trace, write_chrome

    result = solve_apsp(graph, backend="sim", num_threads=8, trace=True)
    trace = trace_from_apsp_result(result)
    write_chrome("trace.json", trace)       # open in ui.perfetto.dev
    print(analyze_trace(trace).format())    # where did the makespan go?
"""

from .analyze import (
    CriticalPath,
    LockHotspot,
    PhaseAttribution,
    Straggler,
    TraceReport,
    analyze_trace,
)
from .chrome import to_chrome, validate_chrome, write_chrome
from .model import (
    CATEGORIES,
    TRACE_SCHEMA_VERSION,
    FlowArrow,
    PhaseStats,
    Trace,
    TraceSpan,
    trace_from_apsp_result,
    trace_from_phases,
    trace_from_request_events,
    trace_from_sim,
)
from .recorder import TraceRecorder

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "CATEGORIES",
    "Trace",
    "TraceSpan",
    "PhaseStats",
    "FlowArrow",
    "trace_from_sim",
    "trace_from_phases",
    "trace_from_apsp_result",
    "trace_from_request_events",
    "to_chrome",
    "write_chrome",
    "validate_chrome",
    "analyze_trace",
    "TraceReport",
    "PhaseAttribution",
    "CriticalPath",
    "LockHotspot",
    "Straggler",
    "TraceRecorder",
]

"""``repro.obs`` — lightweight observability: timers, counters, artifacts.

The rest of the library is instrumented against this package: hot paths
call :func:`counter_add` / :func:`span` / :func:`gauge_max`, which are
no-ops (one global load + ``is None`` test) until a caller installs a
:class:`MetricsRegistry` with :func:`use_registry`.  That keeps tier-1
timing unaffected while letting the CLI (``repro-apsp solve --metrics``),
the benchmark harness and the CI smoke job collect structured metrics.

Layout
------
* :mod:`repro.obs.metrics`  — ``Span`` / ``Counter`` / ``MetricsRegistry``
  plus the module-level no-op fast path.
* :mod:`repro.obs.artifact` — schema-versioned ``BENCH_*.json`` emitter
  (env fingerprint, graph params, op counts, wall/virtual timings).
* :mod:`repro.obs.regress`  — artifact comparator; exits non-zero on a
  regression (op counts exact, timings with tolerance).  The CI gate.
  Also cross-checks ``kernel.*`` call accounting against the
  ``ops.*`` per-source totals so kernel refactors cannot silently
  desync the cost model.
* :mod:`repro.obs.smoke`    — deterministic smoke workload that produces
  the ``BENCH_smoke.json`` artifact CI compares against its baseline.
* :mod:`repro.obs.hist`     — mergeable log-bucketed streaming
  ``LatencyHistogram`` with a certified relative quantile error and
  per-bucket trace-id exemplars; the distribution counterpart of the
  counters, used by the serving telemetry and SLO layers.
"""

from .artifact import (
    SCHEMA_VERSION,
    artifact_from_apsp_result,
    build_artifact,
    env_fingerprint,
    load_artifact,
    validate_artifact,
    write_artifact,
)
from .hist import HIST_SCHEMA_VERSION, LatencyHistogram
from .metrics import (
    Counter,
    MetricsRegistry,
    Span,
    counter_add,
    enabled,
    gauge_max,
    gauge_set,
    get_registry,
    span,
    use_registry,
)

__all__ = [
    "SCHEMA_VERSION",
    "artifact_from_apsp_result",
    "build_artifact",
    "env_fingerprint",
    "load_artifact",
    "validate_artifact",
    "write_artifact",
    "HIST_SCHEMA_VERSION",
    "LatencyHistogram",
    "Counter",
    "MetricsRegistry",
    "Span",
    "counter_add",
    "enabled",
    "gauge_max",
    "gauge_set",
    "get_registry",
    "span",
    "use_registry",
]

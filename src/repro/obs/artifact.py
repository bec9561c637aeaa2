"""Schema-versioned ``BENCH_*.json`` performance artifacts.

One artifact captures one measured run: an environment fingerprint, the
workload parameters, the operation counters (the currency of the cost
model — exact, machine-independent), the timings (virtual time is
deterministic, wall time is informational) and any gauges/spans the
:class:`~repro.obs.metrics.MetricsRegistry` collected.

Sections:

====================== ============================================ ======
section                contents                                     schema
====================== ============================================ ======
``env``                host fingerprint (python, numpy, platform)   /1
``params``             workload identity (graph, algorithm, ...)    /1
``counters``           op counts (``ops.*``, ``kernel.*``, ...)     /1
``timings``            ``virtual.*`` (deterministic) / ``wall.*``   /1
``gauges``             occupancy peaks, contention, utilization     /1
``spans``              hierarchical timer records                   /1
``trace_summary``      flat :meth:`repro.trace.TraceReport.summary` /2
``faults``             fault-injection event counts and timings     /3
``serve``              serving replay counts, latencies, bytes      /4
``serve_latency_hist`` virtual replay latency histogram             /6
``serve_slo``          SLO objective, violation counts, burn rates  /6
``update``             incremental-update bench                     /7
``dist``               multi-node build and routed-serving bench    /8
====================== ============================================ ======

``params`` must match exactly between two compared artifacts; every
section in :data:`NUMERIC_SECTIONS` is checked key by key against
:data:`repro.obs.regress.RULES`; ``env`` and ``spans`` are never
compared.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "SCHEMA_VERSION",
    "env_fingerprint",
    "build_artifact",
    "artifact_from_apsp_result",
    "write_artifact",
    "load_artifact",
    "validate_artifact",
    "NUMERIC_SECTIONS",
]

#: bump the suffix when the artifact layout changes incompatibly
#: (/2: optional numeric ``trace_summary`` section, sorted counters;
#:  /3: optional numeric ``faults`` section from fault-injection runs;
#:  /4: optional numeric ``serve`` section from the query-serving bench;
#:  /5: serve section gains codec fields — store/loaded bytes, certified
#:      vs observed error, ALT short-circuit counters, raw-ref replay;
#:  /6: optional ``serve_latency_hist`` (exact virtual latency
#:      distribution with certified-error quantiles) and ``serve_slo``
#:      (error-budget burn rates) sections from the serving telemetry;
#:  /7: optional ``update`` section from the incremental-update bench —
#:      dirty-shard accounting, store fingerprints, cost-vs-rebuild;
#:  /8: optional ``dist`` section from the multi-node bench — cluster
#:      build makespan/network volume, routed-serving percentiles for
#:      skewed vs rebalanced placement, failover/loss event counts and
#:      the exact routed answer fingerprint)
SCHEMA_VERSION = "repro.obs.bench/8"

#: required top-level keys and their expected container types
_REQUIRED: Dict[str, type] = {
    "schema": str,
    "name": str,
    "env": dict,
    "params": dict,
    "counters": dict,
    "timings": dict,
    "gauges": dict,
    "spans": list,
}

#: flat ``{key: number}`` sections: the required three, then the optional
#: ones in schema order; :data:`repro.obs.regress.RULES` covers each
NUMERIC_SECTIONS = (
    "counters",
    "timings",
    "gauges",
    "trace_summary",
    "faults",
    "serve",
    "serve_latency_hist",
    "serve_slo",
    "update",
    "dist",
)


def env_fingerprint() -> Dict[str, Any]:
    """Where the numbers came from — enough to explain wall-time drift."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count() or 1,
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else "",
    }


def build_artifact(
    name: str,
    *,
    params: Optional[Mapping[str, Any]] = None,
    counters: Optional[Mapping[str, float]] = None,
    timings: Optional[Mapping[str, float]] = None,
    gauges: Optional[Mapping[str, float]] = None,
    spans: Optional[List[Dict[str, Any]]] = None,
    registry: Any = None,
    env: Optional[Mapping[str, Any]] = None,
    trace_summary: Optional[Mapping[str, float]] = None,
    faults: Optional[Mapping[str, float]] = None,
    serve: Optional[Mapping[str, float]] = None,
    serve_latency_hist: Optional[Mapping[str, float]] = None,
    serve_slo: Optional[Mapping[str, float]] = None,
    update: Optional[Mapping[str, float]] = None,
    dist: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """Assemble one schema-valid artifact dict.

    ``registry`` (a :class:`~repro.obs.metrics.MetricsRegistry`) seeds
    the counters/gauges/spans sections; explicit mappings are overlaid on
    top so callers can add derived values.  ``trace_summary`` (a flat
    numeric dict, see :meth:`repro.trace.TraceReport.summary`) and
    ``faults`` (fault-injection event counts + recovery timings) are
    attached verbatim when given.
    """
    base_counters: Dict[str, float] = {}
    base_gauges: Dict[str, float] = {}
    base_spans: List[Dict[str, Any]] = []
    if registry is not None:
        snap = registry.snapshot()
        base_counters.update(snap["counters"])
        base_gauges.update(snap["gauges"])
        base_spans.extend(snap["spans"])
    if counters:
        base_counters.update(counters)
    if gauges:
        base_gauges.update(gauges)
    if spans:
        base_spans.extend(spans)
    artifact: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "created_unix": time.time(),
        "env": dict(env) if env is not None else env_fingerprint(),
        "params": dict(params or {}),
        "counters": _sorted_numeric(base_counters, "counters"),
        "timings": _sorted_numeric(dict(timings or {}), "timings"),
        "gauges": _sorted_numeric(base_gauges, "gauges"),
        "spans": base_spans,
    }
    if trace_summary is not None:
        artifact["trace_summary"] = _sorted_numeric(
            dict(trace_summary), "trace_summary"
        )
    if faults is not None:
        artifact["faults"] = _sorted_numeric(dict(faults), "faults")
    if serve is not None:
        artifact["serve"] = _sorted_numeric(dict(serve), "serve")
    if serve_latency_hist is not None:
        artifact["serve_latency_hist"] = _sorted_numeric(
            dict(serve_latency_hist), "serve_latency_hist"
        )
    if serve_slo is not None:
        artifact["serve_slo"] = _sorted_numeric(
            dict(serve_slo), "serve_slo"
        )
    if update is not None:
        artifact["update"] = _sorted_numeric(dict(update), "update")
    if dist is not None:
        artifact["dist"] = _sorted_numeric(dict(dist), "dist")
    return artifact


def artifact_from_apsp_result(
    name: str,
    graph: Any,
    result: Any,
    *,
    registry: Any = None,
    wall_seconds: Optional[float] = None,
    extra_params: Optional[Mapping[str, Any]] = None,
    trace_summary: Optional[Mapping[str, float]] = None,
    faults: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """Artifact for one :func:`repro.core.runner.solve_apsp` run.

    ``graph``/``result`` are duck-typed (CSRGraph / APSPResult) so this
    module stays import-free of the algorithm layers.  Virtual-time
    phase breakdowns go under ``virtual.*`` for the SIM backend
    (deterministic, gated by regress) and under ``wall.*`` otherwise.
    """
    prefix = "virtual" if result.backend == "sim" else "wall"
    timings: Dict[str, float] = {
        f"{prefix}.ordering": float(result.phase_times.ordering),
        f"{prefix}.dijkstra": float(result.phase_times.dijkstra),
        f"{prefix}.total": float(result.total_time),
    }
    if wall_seconds is not None:
        timings["wall.elapsed"] = float(wall_seconds)
    params: Dict[str, Any] = {
        "graph": graph.name or "anonymous",
        "n": int(graph.num_vertices),
        "m": int(graph.num_edges),
        "directed": bool(graph.directed),
        "algorithm": result.algorithm,
        "backend": result.backend,
        "schedule": result.schedule,
        "threads": int(result.num_threads),
        "ordering": result.ordering_method,
    }
    if extra_params:
        params.update(extra_params)
    counters = {
        f"ops.{key}": int(value)
        for key, value in result.ops.as_dict().items()
    }
    counters["result.reachable_pairs"] = int(result.reachable_pairs())
    env = env_fingerprint()
    if getattr(result, "sweep_kernel", None) is not None:
        # the kernel explains wall time, not workload identity, so it
        # rides in ``env`` (never gated) rather than ``params``
        env["sweep_kernel"] = result.sweep_kernel
    if getattr(result, "sweep_simd", None) is not None:
        # the merge ISA the host dispatched to, for the same reason
        env["sweep_simd"] = result.sweep_simd
    return build_artifact(
        name,
        env=env,
        params=params,
        counters=counters,
        timings=timings,
        registry=registry,
        trace_summary=trace_summary,
        faults=faults,
    )


def _sorted_numeric(mapping: Dict[str, Any], section: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key in sorted(mapping, key=str):
        value = mapping[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(
                f"{section}[{key!r}] must be numeric, got {value!r}"
            )
        out[str(key)] = value
    return out


def write_artifact(path: str, artifact: Mapping[str, Any]) -> str:
    """Validate and write one artifact; returns the path written."""
    problems = validate_artifact(artifact)
    if problems:
        raise ValueError(
            "refusing to write invalid artifact: " + "; ".join(problems)
        )
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_artifact(path: str) -> Dict[str, Any]:
    """Read and validate one artifact file."""
    with open(path, "r", encoding="utf-8") as fh:
        artifact = json.load(fh)
    problems = validate_artifact(artifact)
    if problems:
        raise ValueError(f"{path} is not a valid artifact: "
                         + "; ".join(problems))
    return artifact


def validate_artifact(artifact: Any) -> List[str]:
    """Schema check; returns a list of problems (empty means valid)."""
    problems: List[str] = []
    if not isinstance(artifact, Mapping):
        return ["artifact must be a JSON object"]
    schema = artifact.get("schema")
    if not isinstance(schema, str) or not schema.startswith(
        "repro.obs.bench/"
    ):
        problems.append(f"unknown schema {schema!r}")
    for key, kind in _REQUIRED.items():
        value = artifact.get(key)
        if value is None:
            problems.append(f"missing section {key!r}")
        elif not isinstance(value, kind):
            problems.append(
                f"section {key!r} must be {kind.__name__}, "
                f"got {type(value).__name__}"
            )
    for section in NUMERIC_SECTIONS:
        values = artifact.get(section)
        if values is not None and not isinstance(values, Mapping):
            if section not in _REQUIRED:
                problems.append(
                    f"section {section!r} must be dict, "
                    f"got {type(values).__name__}"
                )
            continue
        for name, value in (values or {}).items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ) or math.isnan(value):
                problems.append(
                    f"{section}[{name!r}] must be numeric, got {value!r}"
                )
    spans = artifact.get("spans")
    if isinstance(spans, list):
        for i, rec in enumerate(spans):
            if not isinstance(rec, Mapping) or "path" not in rec \
                    or "duration" not in rec:
                problems.append(f"spans[{i}] needs 'path' and 'duration'")
                break
    return problems

"""Tail, summarize and validate serving telemetry event logs.

The operational counterpart of :mod:`repro.serve.telemetry`: given a
JSONL event log (``repro.serve.telemetry/1``, written by
:class:`~repro.serve.telemetry.JsonlSink`), this module

* **checks** it — schema header, per-line field validation, known event
  kinds, per-trace monotone timestamps — returning a list of problem
  strings (empty = valid), which is what the CI determinism gate runs
  via ``repro-apsp monitor LOG --check``;
* **summarizes** it — per-kind and per-status counts, an answer-latency
  :class:`~repro.obs.hist.LatencyHistogram` with p50/p99, and the
  top-K slowest requests *by trace id* so "why was this query slow?"
  has a concrete id to feed
  :func:`repro.serve.telemetry.export_request_trace`;
* **tails** it — the last N events, one per line, for eyeballing.

``python -m repro.serve.monitor LOG [--check] [--tail N] [--top K]``
and ``repro-apsp monitor`` are the same entry point.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ReproError
from ..obs.hist import LatencyHistogram
from .telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    _scan_event_log,
    read_event_log,
)

__all__ = [
    "check_event_log",
    "summarize_event_log",
    "tail_events",
    "format_summary",
    "build_parser",
    "run",
    "main",
]


def check_event_log(path: str) -> List[str]:
    """Validate an event log; returns problem strings (empty = OK).

    Every line gets the per-record check of
    :func:`~repro.serve.telemetry.read_event_log`; on top, each trace's
    timestamps must not go backwards.
    """
    problems: List[str] = []
    last_t: Dict[str, float] = {}
    for index, (where, record, found) in enumerate(_scan_event_log(path)):
        problems.extend(f"{where}: {problem}" for problem in found)
        if found or index == 0:  # the header has no timestamp
            continue
        trace_id, t = record["trace_id"], float(record["t"])
        previous = last_t.get(trace_id)
        if previous is not None and t < previous:
            problems.append(
                f"{where}: timestamp {record['t']} goes backwards for "
                f"trace {trace_id} (was {previous})"
            )
        last_t[trace_id] = t
    return problems


def summarize_event_log(
    path: str, *, top: int = 5
) -> Dict[str, Any]:
    """Aggregate an event log into a plain summary dict.

    ``answer`` events carry the request's final latency in their
    ``dur`` field; they feed the latency histogram (exemplars = trace
    ids) and the ``slowest`` top-K list.
    """
    header, events = read_event_log(path)
    kind_counts: Dict[str, int] = {}
    status_counts: Dict[str, int] = {}
    hist = LatencyHistogram()
    answers: List[Tuple[float, str]] = []
    traces = set()
    for record in events:
        kind = str(record.get("kind", "?"))
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        traces.add(record.get("trace_id"))
        attrs = record.get("attrs") or {}
        if kind == "answer":
            status = str(attrs.get("status", "ok"))
            status_counts[status] = status_counts.get(status, 0) + 1
            latency = float(record.get("dur", 0.0))
            trace_id = str(record.get("trace_id"))
            hist.record(latency, trace_id)
            answers.append((latency, trace_id))
    answers.sort(key=lambda pair: (-pair[0], pair[1]))
    return {
        "path": path,
        "schema": header.get("schema"),
        "params": header.get("params", {}),
        "num_events": len(events),
        "num_traces": len(traces),
        "kinds": dict(sorted(kind_counts.items())),
        "statuses": dict(sorted(status_counts.items())),
        "latency": {
            "count": hist.count,
            "p50_ms": hist.quantile(50) * 1e3,
            "p90_ms": hist.quantile(90) * 1e3,
            "p99_ms": hist.quantile(99) * 1e3,
            "rel_error": hist.rel_error,
        },
        "slowest": [
            {"trace_id": trace_id, "latency_ms": latency * 1e3}
            for latency, trace_id in answers[:max(top, 0)]
        ],
    }


def tail_events(path: str, count: int = 10) -> List[Dict[str, Any]]:
    """The last ``count`` event records of the log, in order."""
    _, events = read_event_log(path)
    if count <= 0:
        return []
    return events[-count:]


def _format_event(record: Mapping[str, Any]) -> str:
    attrs = record.get("attrs") or {}
    extra = " ".join(
        f"{key}={value}" for key, value in sorted(attrs.items())
    )
    base = (
        f"{float(record.get('t', 0.0)):>12.6f} "
        f"{str(record.get('kind', '?')):<14} "
        f"{str(record.get('trace_id', '?'))}"
    )
    dur = float(record.get("dur", 0.0))
    if dur:
        base += f" dur={dur:.6f}"
    return base + (f" {extra}" if extra else "")


def format_summary(summary: Mapping[str, Any]) -> str:
    lines = [
        f"event log: {summary['path']}",
        f"schema:    {summary['schema']}",
        f"events:    {summary['num_events']} across "
        f"{summary['num_traces']} traces",
    ]
    kinds = summary.get("kinds", {})
    if kinds:
        lines.append("kinds:     " + " ".join(
            f"{kind}={count}" for kind, count in kinds.items()
        ))
    statuses = summary.get("statuses", {})
    if statuses:
        lines.append("statuses:  " + " ".join(
            f"{status}={count}" for status, count in statuses.items()
        ))
    latency = summary.get("latency", {})
    if latency.get("count"):
        lines.append(
            f"latency:   n={latency['count']} "
            f"p50={latency['p50_ms']:.4f}ms "
            f"p90={latency['p90_ms']:.4f}ms "
            f"p99={latency['p99_ms']:.4f}ms "
            f"(±{latency['rel_error']:.1%} certified)"
        )
    slowest = summary.get("slowest", [])
    if slowest:
        lines.append("slowest requests:")
        for entry in slowest:
            lines.append(
                f"  {entry['latency_ms']:>10.4f} ms  {entry['trace_id']}"
            )
    return "\n".join(lines)


def build_parser(add_help: bool = True) -> argparse.ArgumentParser:
    """The monitor's flags; ``repro-apsp monitor`` adopts them as an
    argparse parent (``add_help=False``)."""
    parser = argparse.ArgumentParser(
        prog="repro-apsp monitor",
        description="tail / summarize / validate a serving telemetry "
                    "JSONL event log",
        add_help=add_help,
    )
    parser.add_argument("log", help="path to the JSONL event log")
    parser.add_argument(
        "--check", action="store_true",
        help="validate the log and exit non-zero on any problem",
    )
    parser.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="print the last N events instead of the summary",
    )
    parser.add_argument(
        "--top", type=int, default=5, metavar="K",
        help="number of slowest exemplar trace ids in the summary",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    """Check, tail or summarize the log named by parsed ``args``."""
    if args.check:
        problems = check_event_log(args.log)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            print(f"FAIL: {len(problems)} problem(s) in {args.log}")
            return 1
        print(f"OK: {args.log} is a valid {TELEMETRY_SCHEMA_VERSION} log")
        return 0
    try:
        if args.tail:
            lines = [_format_event(record)
                     for record in tail_events(args.log, args.tail)]
        else:
            lines = [format_summary(summarize_event_log(args.log,
                                                        top=args.top))]
    except ReproError as exc:
        raise SystemExit(f"repro-apsp monitor: error: {exc}")
    for line in lines:
        print(line)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())

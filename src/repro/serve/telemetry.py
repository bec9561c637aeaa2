"""Request-scoped serving telemetry: trace IDs, events, JSONL sinks.

The serving stack built in PRs 5–7 is observable only in aggregate
(counters and replay latency lists).  This module adds the
**per-request** layer: every query gets a deterministic trace id, its
lifecycle (admit / degrade / shed, cache hit / miss / coalesce-wait,
shard load with codec + nbytes, ALT short-circuit, batch gather, and
the final answer with its certified error bar) is emitted as typed
:class:`TelemetryEvent` records into a bounded ring buffer
(:class:`TelemetryCollector`), optionally mirrored — with deterministic
per-trace sampling — to a JSONL sink, and any single request's event
tree converts to the existing :mod:`repro.trace` Chrome format via
:func:`export_request_trace` so one slow query opens in Perfetto.

Determinism is load-bearing: under :func:`repro.serve.replay.replay_virtual`
event timestamps come from the virtual clock and trace ids from
:func:`make_trace_id` (a CRC of the request's sequence number and
coordinates), so two runs of the same seeded traffic produce
**byte-identical** JSONL logs — CI gates on exactly that.  Under the
real threaded path (:class:`~repro.serve.admission.ServeFrontend` with a
collector attached) timestamps are wall-clock ``perf_counter`` readings
and only per-request *structure* is stable.

Like :mod:`repro.obs.metrics`, the hot path pays one thread-local load
and an ``is None`` test when telemetry is off: engine/store/admission
code calls the module-level :func:`emit`, which no-ops unless a
:func:`request_scope` is active on the current thread.
"""

from __future__ import annotations

import json
import math
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from ..exceptions import ServeError
from ..trace.model import Trace, trace_from_request_events

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "EVENT_KINDS",
    "TelemetryEvent",
    "RequestContext",
    "TelemetryCollector",
    "JsonlSink",
    "make_trace_id",
    "read_event_log",
    "request_scope",
    "current_context",
    "emit",
    "export_request_trace",
]

#: bump when the JSONL event layout changes incompatibly
TELEMETRY_SCHEMA_VERSION = "repro.serve.telemetry/1"

#: every event kind the serving stack emits, in rough lifecycle order
EVENT_KINDS = (
    "request",        # arrival: klass + coordinates
    "admit",          # admission controller let it through
    "degrade",        # admission full -> approximate answer path
    "shed",           # admission full -> rejected outright
    "cache_hit",      # shard already resident
    "cache_miss",     # shard absent -> a load is on this request's path
    "coalesce_wait",  # waited on another request's in-flight load
    "shard_load",     # the load itself (codec, nbytes, shard)
    "short_circuit",  # ALT bounds answered without shard I/O
    "batch_gather",   # micro-batched gather this request rode in
    "answer",         # final status + latency (+ lo/hi error bar)
    "store_swap",     # engine adopted a new store generation (updates)
    "failover",       # routed to a non-primary replica of its shard
    "node_saturated",  # the routed node's in-flight budget was full
    "node_loss",      # a serve node died; its cache went with it
)

#: event kind → unified repro.trace category for Perfetto export:
#: time doing the work / time queued behind someone else / bookkeeping
_KIND_TO_CATEGORY = {
    "shard_load": "compute",
    "batch_gather": "compute",
    "answer": "compute",
    "coalesce_wait": "lock-wait",
}


def _category(kind: str) -> str:
    return _KIND_TO_CATEGORY.get(kind, "overhead")


def make_trace_id(seq: int, kind: str, u: int, v: int = -1) -> str:
    """Deterministic trace id for request ``seq`` of a workload.

    ``req-<seq>-<crc32 of the coordinates>``: stable across runs,
    machines and python versions, unique per sequence number, and the
    hash suffix makes ids self-checking against misattributed events.
    """
    digest = zlib.crc32(f"{kind}:{u}:{v}:{seq}".encode()) & 0xFFFFFFFF
    return f"req-{seq:06d}-{digest:08x}"


@dataclass(frozen=True)
class TelemetryEvent:
    """One typed lifecycle event of one request."""

    trace_id: str
    kind: str
    t: float
    dur: float = 0.0
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ServeError(
                f"unknown telemetry event kind {self.kind!r}; "
                f"expected one of {EVENT_KINDS}"
            )
        if not math.isfinite(self.t):
            raise ServeError(f"event timestamp must be finite, got {self.t}")
        if not math.isfinite(self.dur) or self.dur < 0:
            raise ServeError(
                f"event duration must be finite and >= 0, got {self.dur}"
            )

    def to_record(self) -> Dict[str, Any]:
        """Plain-dict view, attrs JSON-sanitised, keys stable."""
        record: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "kind": self.kind,
            "t": self.t,
            "dur": self.dur,
        }
        if self.attrs:
            record["attrs"] = {
                key: _sanitize(value)
                for key, value in sorted(self.attrs.items())
            }
        return record


def _sanitize(value: Any) -> Any:
    """Make an attr JSON-serialisable and byte-stable.

    numpy scalars become python natives; non-finite floats become the
    strings ``"inf"`` / ``"-inf"`` / ``"nan"`` (strict JSON parsers
    reject the bare literals).
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float) or hasattr(value, "item"):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return str(value)


@dataclass(frozen=True)
class RequestContext:
    """Identity of the request the current events belong to."""

    trace_id: str
    klass: str
    u: int
    v: int = -1
    k: int = -1


class TelemetryCollector:
    """Bounded ring of events + optional sampled JSONL sink.

    The ring always holds the most recent ``capacity`` events whatever
    the sink's sampling says (the ring answers "what just happened",
    the sink builds the durable log).  Sampling is **per trace id** via
    :meth:`sampled` — a deterministic hash test, so a given request is
    all-in or all-out and two identical runs produce identical logs at
    any sampling rate.
    """

    def __init__(
        self,
        *,
        capacity: int = 4096,
        sink: Optional["JsonlSink"] = None,
        sample: float = 1.0,
    ) -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool) \
                or capacity < 1:
            raise ServeError(
                f"telemetry capacity must be an int >= 1, got {capacity!r}"
            )
        if not isinstance(sample, (int, float)) or isinstance(sample, bool) \
                or not 0.0 < float(sample) <= 1.0:
            raise ServeError(
                f"telemetry sample must be in (0, 1], got {sample!r}"
            )
        self.capacity = capacity
        self.sample = float(sample)
        self.sink = sink
        self._lock = threading.Lock()
        self._events: List[TelemetryEvent] = []
        self._start = 0  # ring head index into _events

    def sampled(self, trace_id: str) -> bool:
        """Deterministic per-trace sink admission test."""
        if self.sample >= 1.0:
            return True
        digest = zlib.crc32(trace_id.encode()) & 0xFFFFFFFF
        return digest / 2.0**32 < self.sample

    def emit(
        self,
        trace_id: str,
        kind: str,
        t: float,
        dur: float = 0.0,
        **attrs: Any,
    ) -> None:
        """Record one event (O(1), thread-safe)."""
        event = TelemetryEvent(
            trace_id=trace_id, kind=kind, t=float(t), dur=float(dur),
            attrs=attrs,
        )
        with self._lock:
            self._events.append(event)
            if len(self._events) > 2 * self.capacity:
                # amortised ring compaction: keep the newest `capacity`
                self._events = self._events[-self.capacity:]
                self._start = 0
            elif len(self._events) - self._start > self.capacity:
                self._start = len(self._events) - self.capacity
            if self.sink is not None and self.sampled(trace_id):
                self.sink.write(event)

    def events(self, trace_id: Optional[str] = None) -> List[TelemetryEvent]:
        """Ring contents in emit order, optionally for one request."""
        with self._lock:
            snapshot = self._events[self._start:]
        if trace_id is None:
            return snapshot
        return [e for e in snapshot if e.trace_id == trace_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events) - self._start

    def export_request_trace(self, trace_id: str) -> Trace:
        """One request's event tree as a :mod:`repro.trace` Trace."""
        return export_request_trace(self.events(trace_id), trace_id)


class JsonlSink:
    """Append-only JSONL event log (``repro.serve.telemetry/1``).

    Line 1 is a header carrying the schema version and workload params
    (no timestamps or hostnames — logs must be byte-identical across
    machines for the CI determinism gate); every further line is one
    event dumped with sorted keys and compact separators.
    """

    def __init__(
        self,
        path: Union[str, "TextIO", Any],
        *,
        params: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if hasattr(path, "write"):
            self._fh: TextIO = path
            self._owns = False
            self.path = getattr(path, "name", "<stream>")
        else:
            self._fh = open(path, "w", encoding="utf-8")
            self._owns = True
            self.path = str(path)
        self.lines_written = 0
        header = {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "params": {
                key: _sanitize(value)
                for key, value in sorted((params or {}).items())
            },
        }
        self._write_obj(header)

    def _write_obj(self, obj: Mapping[str, Any]) -> None:
        self._fh.write(
            json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self.lines_written += 1

    def write(self, event: TelemetryEvent) -> None:
        self._write_obj(event.to_record())

    def close(self) -> None:
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _event_problems(record: Any) -> List[str]:
    """Everything wrong with one parsed event line (empty = valid).

    A valid record is what :meth:`TelemetryEvent.to_record` can write:
    an object with a non-empty string ``trace_id``, a known ``kind``, a
    finite numeric ``t``, a finite ``dur >= 0`` (0 when absent) and, if
    present, an ``attrs`` object.
    """
    if not isinstance(record, dict):
        return ["event is not a JSON object"]
    problems: List[str] = []
    trace_id = record.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        problems.append("missing/empty trace_id")
    if record.get("kind") not in EVENT_KINDS:
        problems.append(f"unknown event kind {record.get('kind')!r}")
    if not _finite(record.get("t")):
        problems.append(f"bad timestamp {record.get('t')!r}")
    dur = record.get("dur", 0.0)
    if not _finite(dur) or dur < 0:
        problems.append(f"bad duration {dur!r}")
    attrs = record.get("attrs")
    if attrs is not None and not isinstance(attrs, dict):
        problems.append("attrs is not an object")
    return problems


def _scan_event_log(path: Union[str, Any]
                    ) -> Iterator[Tuple[str, Any, List[str]]]:
    """Parse a JSONL event log line by line.

    Yields ``(where, parsed, problems)`` for every non-blank line, the
    header first; ``where`` is ``"<path>:<line>"`` and ``problems`` is
    empty when the line is valid.  A file that cannot be read or holds
    no line yields one ``("<path>", None, [problem])``.  The one check
    behind :func:`read_event_log` (which stops at the first problem)
    and :func:`repro.serve.monitor.check_event_log` (which lists them
    all).
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        yield str(path), None, [f"cannot read: {exc}"]
        return
    header = True
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            parsed = json.loads(line.decode("utf-8"))
        except UnicodeDecodeError:
            problems = ["not UTF-8"]
            parsed = None
        except json.JSONDecodeError as exc:
            problems = [f"not JSON: {exc}"]
            parsed = None
        else:
            if not header:
                problems = _event_problems(parsed)
            elif not isinstance(parsed, dict):
                problems = ["header is not a JSON object"]
            elif parsed.get("schema") != TELEMETRY_SCHEMA_VERSION:
                problems = [f"schema {parsed.get('schema')!r} != "
                            f"{TELEMETRY_SCHEMA_VERSION!r}"]
            else:
                problems = []
        header = False
        yield where, parsed, problems
    if header:
        yield str(path), None, ["empty event log (missing header line)"]


def read_event_log(path: Union[str, Any]) -> Tuple[Dict[str, Any],
                                                   List[Dict[str, Any]]]:
    """Parse a JSONL event log into ``(header, event_records)``.

    Raises :class:`ServeError` ``"<path>:<line>: <problem>"`` on the
    first problem: an unreadable or empty file, a bad header, or a line
    that is not UTF-8, not JSON or not a valid event.
    """
    records: List[Dict[str, Any]] = []
    for where, parsed, problems in _scan_event_log(path):
        if problems:
            raise ServeError(f"{where}: {problems[0]}")
        records.append(parsed)
    return records[0], records[1:]


# -- thread-local request scope ------------------------------------------
#
# The wall-clock serving path (ServeFrontend -> QueryEngine -> DistStore)
# cannot thread a collector argument through every call without changing
# public signatures, so — mirroring repro.obs.metrics' module-global
# no-op pattern, but per *thread* because requests run concurrently —
# the frontend opens a request_scope() and the engine/store call the
# module-level emit(), which resolves the active (collector, context)
# from a threading.local.

_scope = threading.local()


@contextmanager
def request_scope(collector: TelemetryCollector,
                  ctx: RequestContext) -> Iterator[RequestContext]:
    """Bind ``ctx`` as the current thread's active request."""
    previous = getattr(_scope, "active", None)
    _scope.active = (collector, ctx)
    try:
        yield ctx
    finally:
        _scope.active = previous


def current_context() -> Optional[RequestContext]:
    """The active request's context on this thread, if any."""
    active = getattr(_scope, "active", None)
    return None if active is None else active[1]


def emit(kind: str, dur: float = 0.0, **attrs: Any) -> None:
    """Emit an event for the current thread's request; no-op otherwise.

    Timestamps are raw ``perf_counter`` readings — only meaningful
    relative to other events of the same run; the Chrome exporter
    rebases them to the request's first event.
    """
    active = getattr(_scope, "active", None)
    if active is None:
        return
    collector, ctx = active
    collector.emit(ctx.trace_id, kind, time.perf_counter(), dur, **attrs)


# -- Perfetto export ------------------------------------------------------

def export_request_trace(
    events: Iterable[Union[TelemetryEvent, Mapping[str, Any]]],
    trace_id: str,
    *,
    clock: str = "virtual",
) -> Trace:
    """Convert one request's events to a unified :class:`Trace`.

    Accepts live :class:`TelemetryEvent` objects or the plain records
    read back from a JSONL log; events of other requests are filtered
    out, so the whole ring (or log) can be passed directly.  The result
    passes :func:`repro.trace.validate_chrome` after
    :func:`repro.trace.to_chrome`.
    """
    records: List[Dict[str, Any]] = []
    for event in events:
        if isinstance(event, TelemetryEvent):
            record = event.to_record()
        else:
            record = dict(event)
        if record.get("trace_id") != trace_id:
            continue
        kind = str(record.get("kind", ""))
        name = kind
        attrs = record.get("attrs") or {}
        if kind == "shard_load" and "shard" in attrs:
            name = f"shard_load:{attrs['shard']}"
        records.append({
            "name": name,
            "category": _category(kind),
            "start": float(record.get("t", 0.0)),
            "duration": float(record.get("dur", 0.0)),
        })
    if not records:
        raise ServeError(
            f"no telemetry events recorded for trace_id {trace_id!r}"
        )
    return trace_from_request_events(records, trace_id=trace_id,
                                     clock=clock)

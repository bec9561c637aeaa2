"""Request-scoped telemetry: trace ids, ring, JSONL, Perfetto export."""

from __future__ import annotations

import io
import json
import re
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import ServeError
from repro.serve import (
    TELEMETRY_SCHEMA_VERSION,
    JsonlSink,
    QueryEngine,
    ServeFrontend,
    ShardRouter,
    TelemetryCollector,
    export_request_trace,
    generate_trace,
    make_trace_id,
    read_event_log,
    replay_virtual,
    solve_to_store,
)
from repro.serve.monitor import check_event_log
from repro.serve.telemetry import (
    EVENT_KINDS,
    RequestContext,
    TelemetryEvent,
    emit as scope_emit,
    request_scope,
)
from repro.serve.traffic import TrafficSpec
from repro.trace import to_chrome, validate_chrome

SPEC = TrafficSpec(num_requests=64, rate=2000.0, zipf_s=1.1, seed=3,
                   row_frac=0.05, topk_frac=0.05, topk_k=4)


def _replay(n=128, collector=None):
    trace = generate_trace(SPEC, n)
    return replay_virtual(
        trace, n=n, shard_rows=16, cache_shards=2, num_servers=2,
        optimized=True, telemetry=collector,
    )


class TestTraceIds:
    def test_deterministic_and_unique(self):
        a = make_trace_id(7, "point", 3, 9)
        assert a == make_trace_id(7, "point", 3, 9)
        assert a != make_trace_id(8, "point", 3, 9)
        assert a != make_trace_id(7, "point", 3, 10)
        assert a.startswith("req-000007-")

    def test_replay_ids_match_sequence(self):
        collector = TelemetryCollector()
        _replay(collector=collector)
        requests = [e for e in collector.events() if e.kind == "request"]
        trace = generate_trace(SPEC, 128)
        assert len(requests) == len(trace)
        for seq, (event, req) in enumerate(zip(requests, trace)):
            assert event.trace_id == make_trace_id(
                seq, req.kind, req.u, req.v
            )


class TestCollector:
    def test_ring_keeps_newest(self):
        collector = TelemetryCollector(capacity=4)
        for i in range(11):
            collector.emit(f"req-{i:06d}-aaaaaaaa", "request", float(i))
        assert len(collector) == 4
        kept = [e.t for e in collector.events()]
        assert kept == [7.0, 8.0, 9.0, 10.0]

    def test_events_filter_by_trace(self):
        collector = TelemetryCollector()
        collector.emit("req-000000-aaaaaaaa", "request", 0.0)
        collector.emit("req-000001-bbbbbbbb", "request", 1.0)
        collector.emit("req-000000-aaaaaaaa", "answer", 2.0, 2.0)
        mine = collector.events("req-000000-aaaaaaaa")
        assert [e.kind for e in mine] == ["request", "answer"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServeError):
            TelemetryEvent(trace_id="t", kind="nope", t=0.0)
        assert "request" in EVENT_KINDS

    def test_validation(self):
        with pytest.raises(ServeError):
            TelemetryCollector(capacity=0)
        with pytest.raises(ServeError):
            TelemetryCollector(sample=0.0)
        with pytest.raises(ServeError):
            TelemetryCollector(sample=1.5)

    def test_scope_emit_is_noop_without_scope(self):
        scope_emit("cache_hit")  # must not raise

    def test_scope_emit_lands_under_context(self):
        collector = TelemetryCollector()
        ctx = RequestContext(trace_id="req-000000-cafecafe",
                             klass="point", u=1, v=2)
        with request_scope(collector, ctx):
            scope_emit("cache_hit", shard=3)
        (event,) = collector.events()
        assert event.trace_id == ctx.trace_id
        assert event.attrs["shard"] == 3


class TestJsonl:
    def test_log_byte_identical_across_runs(self):
        logs = []
        for _ in range(2):
            buf = io.StringIO()
            sink = JsonlSink(buf, params={"codec": "raw"})
            _replay(collector=TelemetryCollector(sink=sink))
            sink.close()
            logs.append(buf.getvalue())
        assert logs[0] == logs[1]
        header = json.loads(logs[0].splitlines()[0])
        assert header["schema"] == TELEMETRY_SCHEMA_VERSION

    def test_sampling_is_per_trace_and_deterministic(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        collector = TelemetryCollector(sink=sink, sample=0.5)
        _replay(collector=collector)
        sink.close()
        lines = buf.getvalue().splitlines()[1:]
        logged = {json.loads(line)["trace_id"] for line in lines}
        all_ids = {e.trace_id for e in collector.events()}
        assert set() < logged < all_ids
        # all-or-nothing per trace: every logged trace has its full set
        for tid in logged:
            assert collector.sampled(tid)
            mine = [json.loads(ln) for ln in lines
                    if json.loads(ln)["trace_id"] == tid]
            assert len(mine) == len(collector.events(tid))
        for tid in all_ids - logged:
            assert not collector.sampled(tid)

    def test_read_event_log_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path), params={"seed": 3})
        collector = TelemetryCollector(sink=sink)
        _replay(collector=collector)
        sink.close()
        header, records = read_event_log(str(path))
        assert header["schema"] == TELEMETRY_SCHEMA_VERSION
        assert header["params"]["seed"] == 3
        assert len(records) == len(collector.events())
        assert records[0]["kind"] == "request"

    def test_read_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":"other/9"}\n')
        with pytest.raises(ServeError):
            read_event_log(str(bad))


HEADER = json.dumps({"schema": TELEMETRY_SCHEMA_VERSION, "params": {}})
GOOD = '{"dur":0.0,"kind":"request","t":0.5,"trace_id":"req-1"}'

#: one bad event line each (line 2 of the log)
BAD_LINES = {
    "nan-timestamp": b'{"dur":0.0,"kind":"request","t":NaN,"trace_id":"r"}',
    "string-duration": b'{"dur":"x","kind":"request","t":0.5,"trace_id":"r"}',
    "list-attrs": b'{"attrs":[1],"dur":0.0,"kind":"request","t":0.5,'
                  b'"trace_id":"r"}',
    "unknown-kind": b'{"dur":0.0,"kind":"teleport","t":0.5,"trace_id":"r"}',
    "missing-trace-id": b'{"dur":0.0,"kind":"request","t":0.5}',
    "not-utf8": b'{"dur":0.0,"kind":"request","t":0.5,"trace_id":"\xff"}',
    "not-an-object": b"[1, 2]",
}


def _log(tmp_path, bad: bytes):
    path = tmp_path / "events.jsonl"
    path.write_bytes(HEADER.encode() + b"\n" + bad + b"\n"
                     + GOOD.encode() + b"\n")
    return str(path)


class TestEventLogValidation:
    """read_event_log and check_event_log share one per-record check."""

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_strict_reader_names_the_line(self, tmp_path, case):
        path = _log(tmp_path, BAD_LINES[case])
        with pytest.raises(ServeError, match="^" + re.escape(f"{path}:2: ")):
            read_event_log(path)

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_check_lists_the_line(self, tmp_path, case):
        problems = check_event_log(_log(tmp_path, BAD_LINES[case]))
        assert len(problems) == 1
        assert problems[0].startswith(f"{tmp_path / 'events.jsonl'}:2: ")

    def test_check_collects_every_problem(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b"\n".join([
            b'{"schema":"other/9"}', BAD_LINES["nan-timestamp"],
            BAD_LINES["unknown-kind"], BAD_LINES["not-utf8"],
        ]))
        problems = check_event_log(str(path))
        assert [p.split(": ")[0] for p in problems] == [
            f"{path}:{line}" for line in (1, 2, 3, 4)
        ]

    def test_only_check_flags_a_backwards_timestamp(self, tmp_path):
        late = GOOD.replace('"t":0.5', '"t":0.7').encode()
        path = _log(tmp_path, late)
        _, records = read_event_log(path)
        assert [r["t"] for r in records] == [0.7, 0.5]
        problems = check_event_log(path)
        assert len(problems) == 1 and "goes backwards" in problems[0]

    def test_empty_and_missing_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n\n")
        missing = tmp_path / "missing.jsonl"
        for path in (empty, missing):
            with pytest.raises(ServeError, match="^" + re.escape(f"{path}: ")):
                read_event_log(str(path))
            assert len(check_event_log(str(path))) == 1


class TestRoutedTelemetry:
    """A routed replay with a mid-trace node loss, logged to JSONL."""

    HOT = TrafficSpec(num_requests=200, rate=6000.0, zipf_s=1.1, seed=13,
                      hot_frac=0.6, hot_width=16)

    def _routed(self, telemetry=None):
        trace = generate_trace(self.HOT, 128)
        mid = trace[len(trace) // 2].arrival
        return replay_virtual(
            trace, n=128, shard_rows=16, cache_shards=2,
            router=ShardRouter(3, replication=2), node_budget=4,
            servers_per_node=1, node_down=((mid, 0),),
            telemetry=telemetry,
        )

    def _logged(self, path):
        sink = JsonlSink(str(path), params={"nodes": 3})
        try:
            result = self._routed(TelemetryCollector(capacity=8192,
                                                     sink=sink))
        finally:
            sink.close()
        return result

    def test_log_is_deterministic_and_valid(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        result = self._logged(first)
        self._logged(second)
        assert first.read_bytes() == second.read_bytes()
        assert check_event_log(str(first)) == []
        _, records = read_event_log(str(first))
        kinds = {record["kind"] for record in records}
        assert {"failover", "node_saturated", "node_loss"} <= kinds
        c = result.counters
        assert c["node_losses"] == 1 and c["failovers"] > 0
        assert c["node_saturated"] > 0
        # routed events carry the node they ran on
        answers = [r for r in records if r["kind"] == "answer"
                   and r["attrs"]["status"] == "ok"]
        assert answers and all("node" in r["attrs"] for r in answers)

    def test_telemetry_does_not_change_the_result(self, tmp_path):
        plain = self._routed()
        logged = self._logged(tmp_path / "events.jsonl")
        assert plain.counters == logged.counters
        assert plain.latencies == logged.latencies
        assert plain.arrivals == logged.arrivals
        assert plain.trace_ids == logged.trace_ids


class TestPerfettoExport:
    def test_export_passes_validate_chrome(self):
        collector = TelemetryCollector()
        result = _replay(collector=collector)
        # pick the slowest point request by recorded latency
        lat = result.latencies["point"]
        tid = result.trace_ids["point"][lat.index(max(lat))]
        trace = export_request_trace(collector.events(), tid)
        assert validate_chrome(to_chrome(trace)) == []
        assert trace.meta["trace_id"] == tid

    def test_export_from_log_records(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        collector = TelemetryCollector(sink=sink)
        result = _replay(collector=collector)
        sink.close()
        _, records = read_event_log(str(path))
        tid = result.trace_ids["point"][0]
        trace = export_request_trace(records, tid)
        assert validate_chrome(to_chrome(trace)) == []

    def test_export_unknown_trace_raises(self):
        collector = TelemetryCollector()
        _replay(collector=collector)
        with pytest.raises(ServeError):
            export_request_trace(collector.events(), "req-999999-00000000")


class TestThreadedFrontend:
    def test_real_frontend_emits_scoped_events(self, small_weighted,
                                               tmp_path):
        store = solve_to_store(small_weighted, tmp_path / "store",
                               shard_rows=16, num_landmarks=4)
        collector = TelemetryCollector()
        frontend = ServeFrontend(
            QueryEngine(store, cache_shards=2), telemetry=collector,
        )
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda v: frontend.point(0, v), range(32)))
        answers = [e for e in collector.events() if e.kind == "answer"]
        assert len(answers) == 32
        # every answer's trace has its own request + admit events, and
        # the engine's scope-aware emits landed under real trace ids
        for event in answers:
            kinds = {e.kind for e in collector.events(event.trace_id)}
            assert "request" in kinds
            assert "admit" in kinds
        hits = [e for e in collector.events() if e.kind == "cache_hit"]
        assert hits, "engine cache hits did not reach the collector"

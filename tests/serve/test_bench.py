"""serve bench: artifact validity, determinism, regress gating."""

from __future__ import annotations

import json

import pytest

from repro.obs.artifact import validate_artifact
from repro.obs.regress import compare_artifacts
from repro.serve.bench import run_serve_smoke


@pytest.fixture(scope="module")
def smoke_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("serve-smoke")


@pytest.fixture(scope="module")
def smoke(smoke_dir):
    # the CI smoke configuration (n=128, 16-row shards): big enough
    # that shard loads dominate the batch window, which is what the
    # raw opt-vs-naive latency gate needs; still < a second
    artifact, registry = run_serve_smoke(
        scale=7, edge_factor=8, seed=5, shard_rows=16, cache_shards=3,
        events_out=str(smoke_dir / "events.jsonl"),
        request_trace_out=str(smoke_dir / "request_trace.json"),
    )
    return artifact, registry


class TestServeSmoke:
    def test_artifact_is_valid(self, smoke):
        artifact, _ = smoke
        assert validate_artifact(artifact) == []
        assert artifact["name"] == "serve-smoke"
        serve = artifact["serve"]
        assert serve["serve.opt.shard_loads"] < serve[
            "serve.naive.shard_loads"
        ]
        assert serve["serve.opt.mean_ms"] < serve["serve.naive.mean_ms"]
        assert serve["serve.opt.mean_speedup"] > 1.0
        assert 0.0 < serve["serve.opt.hit_rate"] < 1.0
        assert serve["serve.sat.degraded"] > 0

    def test_registry_captured_store_lifecycle(self, smoke):
        _, registry = smoke
        counters = registry.counters()
        assert counters["serve.store.builds"] == 1
        assert counters["serve.store.corruption_detected"] >= 1
        assert counters["serve.store.shards_repaired"] == 1

    def test_deterministic_across_runs(self, smoke, smoke_dir, tmp_path):
        artifact, _ = smoke
        again, _ = run_serve_smoke(
            scale=7, edge_factor=8, seed=5, shard_rows=16, cache_shards=3,
            events_out=str(tmp_path / "events.jsonl"),
            request_trace_out=str(tmp_path / "request_trace.json"),
        )
        assert again["serve"] == artifact["serve"]
        assert again["counters"] == artifact["counters"]
        assert again["serve_latency_hist"] == artifact["serve_latency_hist"]
        assert again["serve_slo"] == artifact["serve_slo"]
        # the telemetry log and the exported request trace are
        # byte-identical — the CI determinism gate in miniature
        assert (tmp_path / "events.jsonl").read_bytes() \
            == (smoke_dir / "events.jsonl").read_bytes()
        assert (tmp_path / "request_trace.json").read_bytes() \
            == (smoke_dir / "request_trace.json").read_bytes()

    def test_regress_self_compare_passes(self, smoke):
        artifact, _ = smoke
        regressions, _ = compare_artifacts(artifact, artifact)
        assert regressions == []

    def test_regress_catches_serve_regressions(self, smoke):
        artifact, _ = smoke

        def mutated(key, value):
            out = {k: dict(v) if isinstance(v, dict) else v
                   for k, v in artifact.items()}
            out["serve"][key] = value
            return out

        def gated(current):
            regressions, _ = compare_artifacts(artifact, current)
            return regressions

        # hit rate fell beyond tolerance -> regression
        worse_hits = mutated(
            "serve.opt.hit_rate", artifact["serve"]["serve.opt.hit_rate"] - 0.1
        )
        assert gated(worse_hits)
        # latency grew 10x -> regression
        slow = mutated(
            "serve.opt.mean_ms", artifact["serve"]["serve.opt.mean_ms"] * 10
        )
        assert gated(slow)
        # store bytes changed -> exact counter mismatch -> regression
        refp = mutated("serve.store.fingerprint", 1.0)
        assert gated(refp)
        # small hit-rate jitter within atol -> fine
        jitter = mutated(
            "serve.opt.hit_rate",
            artifact["serve"]["serve.opt.hit_rate"] - 0.01,
        )
        assert gated(jitter) == []
        # improvements never regress
        faster = mutated(
            "serve.opt.mean_ms", artifact["serve"]["serve.opt.mean_ms"] / 2
        )
        assert gated(faster) == []

    def test_regress_flags_missing_serve_section(self, smoke):
        artifact, _ = smoke
        stripped = {k: v for k, v in artifact.items() if k != "serve"}
        regressions, _ = compare_artifacts(artifact, stripped)
        assert regressions

    def test_regress_gates_bytes_and_error_bounds(self, smoke):
        artifact, _ = smoke

        def mutated(key, value):
            out = {k: dict(v) if isinstance(v, dict) else v
                   for k, v in artifact.items()}
            out["serve"][key] = value
            return out

        def gated(current):
            regressions, _ = compare_artifacts(artifact, current)
            return regressions

        serve = artifact["serve"]
        # a silently raised certified error bound is a correctness
        # regression — the gate is exact, so any drift fails
        key = "serve.error.certified_max_abs_error"
        raised = mutated(key, serve[key] + 1e-6)
        assert any(key in r for r in gated(raised))
        lowered = mutated(key, serve[key] - 1e-6)
        assert gated(lowered)
        # byte totals gate upward: growth fails, shrink is a win
        for key in ("serve.store.store_bytes", "serve.opt.bytes_loaded"):
            grown = mutated(key, serve[key] * 2)
            assert gated(grown), key
            shrunk = mutated(key, serve[key] / 2)
            assert gated(shrunk) == [], key


class TestCodecSmoke:
    @pytest.mark.parametrize("codec", ["f4", "u16q", "u16qd"])
    def test_compressed_codecs_pass_and_shrink(self, codec):
        artifact, _ = run_serve_smoke(
            scale=5, edge_factor=8, seed=5, shard_rows=8,
            cache_shards=2, codec=codec,
        )
        serve = artifact["serve"]
        assert artifact["params"]["codec"] == codec
        assert serve["serve.store.compression_ratio"] >= 2.0
        assert serve["serve.error.observed_max_abs_error"] \
            <= serve["serve.error.certified_max_abs_error"]
        assert serve["serve.opt.bytes_loaded"] \
            < serve["serve.naive.bytes_loaded"]
        # compressed loads beat the raw-f8 cost reference
        assert serve["serve.opt.raw_speedup"] > 1.0
        assert serve["serve.alt.short_circuits"] > 0
        assert serve["serve.alt.shard_loads"] \
            < serve["serve.opt.shard_loads"]

    def test_alt_replay_cuts_loads_on_raw(self, smoke):
        artifact, _ = smoke
        serve = artifact["serve"]
        assert serve["serve.alt.short_circuits"] > 0
        assert serve["serve.alt.shard_loads"] \
            < serve["serve.opt.shard_loads"]
        assert serve["serve.store.compression_ratio"] == 1.0
        assert serve["serve.error.certified_max_abs_error"] == 0.0


class TestCodecCurve:
    def test_curve_covers_all_codecs(self):
        from repro.serve.bench import CURVE_SCHEMA_VERSION, run_codec_curve
        from repro.serve.codecs import codec_names

        curve = run_codec_curve(
            scale=7, edge_factor=8, seed=5, shard_rows=16, cache_shards=3
        )
        assert curve["schema"] == CURVE_SCHEMA_VERSION
        points = {p["codec"]: p for p in curve["points"]}
        assert set(points) == set(codec_names())
        raw = points["raw"]
        for name, point in points.items():
            assert point["observed_max_abs_error"] \
                <= point["certified_max_abs_error"]
            assert point["p50_ms"] <= point["p99_ms"]
            if name != "raw":
                assert point["store_bytes"] < raw["store_bytes"]
        # the headline claim: u16q halves-of-halves the store
        assert points["u16q"]["store_bytes"] * 4 == raw["store_bytes"]


class TestTelemetrySections:
    def test_hist_section_matches_exact_percentiles(self, smoke):
        # rebuild the same optimised replay (raw codec => the default
        # uniform f8 shard sizes are the store's real sizes) and check
        # every reported quantile against the exact sorted percentile
        from repro.serve.bench import DEFAULT_SERVERS, SMOKE_TRAFFIC
        from repro.serve.replay import replay_virtual
        from repro.serve.traffic import generate_trace

        artifact, _ = smoke
        hist = artifact["serve_latency_hist"]
        rel = hist["serve.opt.hist.rel_error"]
        trace = generate_trace(SMOKE_TRAFFIC, 128)
        opt = replay_virtual(trace, n=128, shard_rows=16, cache_shards=3,
                             num_servers=DEFAULT_SERVERS, optimized=True)
        assert hist["serve.opt.hist.count"] == sum(
            len(v) for v in opt.latencies.values()
        )
        for q in (50, 90, 99):
            exact = opt.percentile_latency(q) * 1e3
            approx = hist[f"serve.opt.hist.p{q}_ms"]
            assert abs(approx - exact) <= rel * exact + 1e-9
        # the headline opt percentiles are the histogram's
        serve = artifact["serve"]
        assert serve["serve.opt.p50_ms"] == hist["serve.opt.hist.p50_ms"]
        assert serve["serve.opt.p99_ms"] == hist["serve.opt.hist.p99_ms"]

    def test_slo_section_shape(self, smoke):
        artifact, _ = smoke
        slo = artifact["serve_slo"]
        assert slo["serve.slo.point.threshold_ms"] == pytest.approx(5.0)
        assert slo["serve.slo.point.objective"] == pytest.approx(0.9)
        assert slo["serve.slo.point.total"] > 0
        assert slo["serve.slo.point.worst_window_burn_rate"] \
            >= slo["serve.slo.point.burn_rate"]

    def test_regress_gates_hist_exactly(self, smoke):
        artifact, _ = smoke

        def gated(current):
            regressions, _ = compare_artifacts(artifact, current)
            return regressions

        def mutated(edit):
            out = {k: dict(v) if isinstance(v, dict) else v
                   for k, v in artifact.items()}
            edit(out["serve_latency_hist"])
            return out

        bucket_key = next(k for k in artifact["serve_latency_hist"]
                          if ".bucket." in k)
        # one count moving is a regression, in either direction
        assert gated(mutated(lambda h: h.update({bucket_key:
                                                 h[bucket_key] + 1})))
        # a bucket disappearing or appearing is a distribution change
        assert gated(mutated(lambda h: h.pop(bucket_key)))
        assert gated(mutated(lambda h: h.update({
            "serve.opt.hist.bucket.999": 1.0})))
        # dropping the whole section is a regression
        stripped = {k: v for k, v in artifact.items()
                    if k != "serve_latency_hist"}
        assert gated(stripped)

    def test_regress_gates_burn_rate_upward_only(self, smoke):
        artifact, _ = smoke

        def mutated(key, value):
            out = {k: dict(v) if isinstance(v, dict) else v
                   for k, v in artifact.items()}
            out["serve_slo"][key] = value
            return out

        def gated(current):
            regressions, _ = compare_artifacts(artifact, current)
            return regressions

        key = "serve.slo.point.burn_rate"
        base = artifact["serve_slo"][key]
        assert gated(mutated(key, base + 0.5))       # burning faster
        assert gated(mutated(key, base * 0.5)) == []  # improvement
        # everything else in the section is exact
        vkey = "serve.slo.point.violations"
        assert gated(mutated(vkey, artifact["serve_slo"][vkey] + 1))

    def test_event_log_passes_monitor_check(self, smoke, smoke_dir):
        from repro.serve.monitor import check_event_log, \
            summarize_event_log

        del smoke  # fixture ordering: the log must exist
        path = str(smoke_dir / "events.jsonl")
        assert check_event_log(path) == []
        summary = summarize_event_log(path)
        assert summary["num_traces"] == 512
        assert summary["kinds"]["answer"] == 512

    def test_request_trace_is_valid_chrome(self, smoke, smoke_dir):
        from repro.trace import validate_chrome

        del smoke
        obj = json.loads((smoke_dir / "request_trace.json").read_text())
        assert validate_chrome(obj) == []


class TestBenchFlags:
    def test_scenario_flags_are_mutually_exclusive(self, tmp_path, capsys):
        from repro.serve.bench import main

        events = tmp_path / "e.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["--update", "--dist", "--events", str(events),
                  "--epsilon", "5", "--out", str(tmp_path / "B.json")])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not events.exists()
        assert not (tmp_path / "B.json").exists()

    @pytest.mark.parametrize("scenario, flag", [
        (["--update"], "--epsilon"),
        (["--dist"], "--epsilon"),
        (["--update"], "--events"),
        (["--dist"], "--request-trace"),
        (["--curve", "curve.json"], "--events"),
        (["--curve", "curve.json"], "--request-trace"),
        (["--update"], "--events-sample"),
        (["--dist"], "--events-sample"),
        (["--curve", "curve.json"], "--events-sample"),
        ([], "--events-sample"),
    ])
    def test_flag_the_scenario_ignores_is_refused(
        self, tmp_path, capsys, monkeypatch, scenario, flag
    ):
        from repro.serve.bench import main

        monkeypatch.chdir(tmp_path)
        value = {"--epsilon": "5", "--events-sample": "0.5"}.get(
            flag, "out.json"
        )
        assert main(scenario + [flag, value]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: not allowed" in err
        assert list(tmp_path.iterdir()) == []

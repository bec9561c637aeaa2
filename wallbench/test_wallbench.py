"""Self-test of the wall-clock benchmark on reduced inputs.

Run from the repository root (a few tens of seconds)::

    PYTHONPATH=src python3 -m pytest wallbench -q

Every test runs under a hard timeout.  The workload tests assert that
each named metric is emitted with its unit, that the traced layers plus
``residual_s`` sum to the wall time, and that a run leaves no thread,
child process or temp store behind; the check tests feed each
correctness check a deliberately corrupted answer.
"""

from __future__ import annotations

import faulthandler
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.graphs.generators import path as path_graph
from repro.serve import QueryEngine, solve_to_store
from repro.serve.admission import QueryResponse
from repro.serve.traffic import Request

from wallbench import checks, hostspeed, layers, workloads

TIMEOUT_S = 240
SMALL = workloads.Sizes(
    build_scale=7, update_scale=7, shards=4, cache_shards=1, setup_reps=2,
    solve_graphs=2, side_solve_passes=1, side_serve_s=0.2, window_s=0.1,
    side_update_pairs=1, side_update_rest_s=0.05, dirty_batches=1,
    clean_batches=2, trace_requests=500,
)
SELF_TIMES = set(layers.LAYER_OF.values())


@pytest.fixture(autouse=True)
def hard_timeout():
    faulthandler.dump_traceback_later(TIMEOUT_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def _children() -> set:
    found = set()
    for task in Path("/proc/self/task").iterdir():
        text = (task / "children").read_text().split()
        found.update(int(pid) for pid in text)
    return found


def _run(workload, tmp_path, trace):
    before_threads = set(threading.enumerate())
    before_children = _children()
    root = tmp_path / "wallbench-tmp"
    result = workloads.run(workload, 3, 0.5, trace, root, SMALL)
    assert set(threading.enumerate()) == before_threads
    assert _children() == before_children
    assert not root.exists()
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload, tmp_path):
    result = _run(workload, tmp_path, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == list(workloads.END_TO_END)
    for name, entry in metrics.items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name
    assert metrics["correct_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_sum_to_wall(workload, tmp_path):
    result = _run(workload, tmp_path, trace=True)
    assert result["correct"]
    assert result["unknown_spans"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] \
        == list(workloads.PER_LAYER)
    layered = sum(v for k, v in metrics.items() if k in SELF_TIMES)
    assert metrics["residual_s"] >= 0.0
    assert layered + metrics["residual_s"] == pytest.approx(metrics["wall_s"], rel=1e-9)
    assert metrics["engine.hits"] + metrics["engine.misses"] > 0
    assert metrics["update.batches"] > 0
    if workload == "build":
        assert metrics["core.sweep_s"] > 0 and metrics["core.pops"] > 0
        assert metrics["codecs.encode_bytes"] > 0 and metrics["store.write_bytes"] > 0
    if workload == "update":
        assert metrics["update.dirty_shards"] > 0
        assert metrics["core.shard_solve_s"] > 0


def test_breakdown_splits_worker_time():
    from repro.obs.metrics import SpanRecord

    timeline = [
        (SpanRecord("bench.driver/1", 0.0, 10.0), 1, "main"),
        (SpanRecord("bench.driver/1.apsp.dijkstra", 1.0, 4.0), 1, "main"),
        (SpanRecord("bench.driver/1.bench.check", 6.0, 1.0), 1, "main"),
        (SpanRecord("parallel.worker", 1.1, 3.8), 2, "w0"),
        (SpanRecord("parallel.worker.sweep.source", 1.2, 2.0), 2, "w0"),
        (SpanRecord("parallel.worker", 1.1, 3.8), 3, "w1"),
        (SpanRecord("parallel.worker.sweep.source", 2.0, 2.5), 3, "w1"),
    ]
    out, unknown = layers.breakdown(timeline, 12.0)
    assert unknown == []
    assert out["core.sweep_s"] == pytest.approx(3.3)  # union of [1.2, 4.5]
    assert out["parallel.self_s"] == pytest.approx(0.7)
    assert out["bench.check_s"] == pytest.approx(1.0)
    assert out["residual_s"] == pytest.approx(12.0 - 5.0)


def test_slowdown_uses_the_samples_around_an_interval():
    samples = hostspeed.Samples(nominal=2.0)
    for stamp, cost in ((1.0, 2.0), (2.0, 4.0), (2.1, 6.0), (2.2, 4.0), (9.0, 10.0)):
        samples.add(stamp, cost)
    assert samples.slowdown(2.05, 2.15) == pytest.approx(2.0)
    assert samples.slowdown(5.0, 5.5) == pytest.approx(2.0)  # nearest: 2.2
    assert samples.slowdown(8.5, 8.5) == pytest.approx(5.0)  # within PAD_S of 9.0
    assert hostspeed.Samples(nominal=1.0).slowdown(0.0, 1.0) == 1.0
    steal = hostspeed.StealLog()
    assert steal.share(0.0, 1.0) == 0.0  # no readings: nothing stolen
    for stamp, ticks in ((0.0, (0, 0)), (1.0, (10, 100)), (2.0, (10, 200)),
                         (9.0, (110, 300))):
        steal.stamps.append(stamp)
        steal.ticks.append(ticks)
    assert steal.share(1.5, 1.5) == 0.0  # readings at 1.0 and 2.0
    assert steal.share(0.5, 1.0) == pytest.approx(0.05)  # readings at 0.0 and 2.0
    assert steal.share(5.0, 5.0) == 0.5  # none within 1 s: 2.0 and 9.0, capped
    clock = hostspeed.HostClock()
    clock.sample(2)
    clock.sample_pair()
    assert len(clock.single.costs) == 2 and len(clock.pair.costs) == 1
    assert clock.seconds(0.0, 1.0) > 0 and clock.seconds(0.0, 1.0, pair=True) > 0


# -- every correctness check fires on a corrupted answer -----------------


def test_rows_match_is_bitwise_for_exact_stores():
    exact = np.array([0.0, 1.0, np.inf, 2.5])
    assert checks.rows_match(exact.copy(), exact)
    assert not checks.rows_match(np.nextafter(exact, 9), exact)
    assert not checks.rows_match(np.array([0.0, 1.0, 7.0, 2.5]), exact)
    assert not checks.rows_match(np.array([0.0, 1.0, np.nan, 2.5]), exact)
    assert checks.rows_match(exact + [0.01, 0.01, 0, 0], exact, err=0.01)
    assert not checks.rows_match(exact + [0.02, 0, 0, 0], exact, err=0.01)
    assert checks.digest(exact.copy()) == checks.digest(exact)
    assert checks.digest(np.nextafter(exact, 9)) != checks.digest(exact)
    assert checks.value_matches(np.inf, np.inf)
    assert not checks.value_matches(2.0, 1.0)
    assert not checks.value_matches(np.nan, 1.0, err=0.5)
    assert checks.value_matches(1.4, 1.0, err=0.5)


def test_topk_check_catches_wrong_ties_and_values():
    row = np.array([0.0, 2.0, 1.0, 1.0, np.inf, 3.0])
    ref = checks.reference_topk(row, 0, 2)
    assert ref == [(2, 1.0), (3, 1.0)]
    assert checks.topk_matches(ref, row, 0, 2)
    assert not checks.topk_matches([(3, 1.0), (2, 1.0)], row, 0, 2)  # tie order
    assert not checks.topk_matches([(2, 1.0), (1, 2.0)], row, 0, 2)
    # lossy: a swap within 2·err passes, a far vertex or bad value does not
    assert checks.topk_matches([(3, 0.99), (2, 1.0)], row, 0, 2, err=0.02)
    assert not checks.topk_matches([(2, 1.0), (5, 3.0)], row, 0, 2, err=0.02)
    assert not checks.topk_matches([(2, 1.5), (3, 1.5)], row, 0, 2, err=0.02)


def test_response_check_refuses_degraded_and_shed():
    exact = np.array([[0.0, 1.0], [1.0, 0.0]])
    req = Request(0.0, "point", 0, v=1)
    assert checks.response_matches(req, QueryResponse("point", 1.0), exact)
    assert not checks.response_matches(req, QueryResponse("point", 2.0), exact)
    assert not checks.response_matches(
        req, QueryResponse("point", 1.0, "degraded", True, 0.5, 1.0), exact)
    assert not checks.response_matches(
        Request(0.0, "row", 0), QueryResponse("row", None, "shed"), exact)
    assert not checks.response_matches(req, None, exact)


def test_store_checks_catch_a_wrong_shard(tmp_path):
    graph = path_graph(8)
    exact = workloads.reference_apsp(graph)
    store = solve_to_store(graph, tmp_path / "a", shard_rows=3, use_flags=False)
    assert checks.store_matches(store, exact)
    bad = exact.copy()
    bad[7, 0] += 1.0
    assert not checks.store_matches(store, bad)
    same = solve_to_store(graph, tmp_path / "b", shard_rows=3, use_flags=False)
    assert checks.stores_identical(store, same)
    other = solve_to_store(path_graph(8).with_unit_weights(), tmp_path / "c",
                           shard_rows=3, use_flags=False, codec="f4")
    assert not checks.stores_identical(store, other)


def test_wrong_answers_count_as_failures(tmp_path, monkeypatch):
    real = QueryEngine.dist

    def off_by_one(self, u, v):
        return real(self, u, v) + (1.0 if u % 2 else 0.0)

    monkeypatch.setattr(QueryEngine, "dist", off_by_one)
    result = _run("serve", tmp_path, trace=False)
    assert not result["correct"] and result["failed"] > 0
    frac = result["metrics"]["correct_frac"]["value"]
    assert 0.0 < frac < 1.0


def test_wrong_solve_counts_as_failure(tmp_path, monkeypatch):
    real = workloads.par_apsp

    def corrupt(graph, **kwargs):
        result = real(graph, **kwargs)
        result.dist[0, 0] += 1.0  # the diagonal is always 0
        return result

    monkeypatch.setattr(workloads, "par_apsp", corrupt)
    result = _run("build", tmp_path, trace=False)
    assert result["failed"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_failed_store_builds_count_as_failures(workload, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ReproError("injected build failure")

    monkeypatch.setattr(workloads, "solve_to_store", broken)
    result = _run(workload, tmp_path, trace=False)
    assert not result["correct"] and result["failed"] > 0

"""Exact pins of the virtual replay: single-node and routed.

Each case replays a seeded trace and hashes the whole
:class:`~repro.serve.replay.ReplayResult` — counters, then per class
the latencies, arrivals and trace ids, floats by their exact ``repr``
— with sha256.  The digests were computed once and written down, so
any change to the replay model that moves a single latency by one ulp,
reorders a request or miscounts an event fails here.  The regress gate
on the committed bench baselines cannot do this: it lets routed
latencies rise by 10%.

One single-node JSONL event log is pinned the same way, byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json

import pytest

from repro.serve import (
    ServeCostModel,
    ShardRouter,
    TrafficSpec,
    generate_trace,
    replay_virtual,
)
from repro.serve.bench import SATURATION_POLICY
from repro.serve.telemetry import JsonlSink, TelemetryCollector

N = 128
SHARD_ROWS = 16
NUM_SHARDS = N // SHARD_ROWS
#: uneven encoded shard sizes, so loads cost differently per shard
SHARD_NBYTES = [16384 + 4096 * ((7 * s) % 5) for s in range(NUM_SHARDS)]

TRAFFIC = TrafficSpec(num_requests=400, rate=2000.0, zipf_s=1.1, seed=13,
                      row_frac=0.04, topk_frac=0.06, topk_k=10)
BURST = dataclasses.replace(TRAFFIC, rate=40000.0)
#: one hot shard-wide band on top of the Zipf law: the routed workload
HOT = TrafficSpec(num_requests=400, rate=6000.0, zipf_s=1.1, seed=13,
                  row_frac=0.02, topk_frac=0.05, topk_k=10,
                  hot_frac=0.6, hot_width=16)


def _digest(result) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(sorted(result.counters.items())).encode())
    for klass in sorted(result.latencies):
        h.update(json.dumps([
            klass,
            result.latencies[klass],
            result.arrivals[klass],
            result.trace_ids[klass],
        ]).encode())
    return h.hexdigest()


def _short_circuits(trace):
    """Every third point request answers from ALT bounds."""
    points = [i for i, req in enumerate(trace) if req.kind == "point"]
    return points[::3]


def _ring() -> ShardRouter:
    return ShardRouter(4, replication=2, vnodes=64, hash_seed=0)


def _shard_loads(trace):
    loads = {s: 0.0 for s in range(NUM_SHARDS)}
    for req in trace:
        loads[req.u // SHARD_ROWS] += 1.0
    return loads


def _single(trace, **kwargs):
    return replay_virtual(
        trace, n=N, shard_rows=SHARD_ROWS, cost=ServeCostModel(),
        cache_shards=3, num_servers=2, shard_nbytes=SHARD_NBYTES,
        **kwargs,
    )


def _routed(trace, router, **kwargs):
    options = dict(cache_shards=2, node_budget=32, servers_per_node=2)
    options.update(kwargs)
    return replay_virtual(
        trace, n=N, shard_rows=SHARD_ROWS, cost=ServeCostModel(),
        shard_nbytes=SHARD_NBYTES, router=router, **options,
    )


def _case_single_optimized():
    trace = generate_trace(TRAFFIC, N)
    result = _single(trace, short_circuits=_short_circuits(trace))
    c = result.counters
    assert c["batches"] > 0 and c["short_circuits"] > 0
    assert c["coalesced"] > 0 and c["cache_hits"] > 0
    return result


def _case_single_naive():
    trace = generate_trace(TRAFFIC, N)
    result = _single(trace, optimized=False,
                     short_circuits=_short_circuits(trace))
    assert result.counters["batches"] == 0
    assert result.counters["short_circuits"] == 0
    return result


def _case_single_saturated():
    trace = generate_trace(BURST, N)
    result = _single(trace, policy=SATURATION_POLICY,
                     short_circuits=_short_circuits(trace))
    assert result.counters["degraded"] > 0
    return result


def _case_routed_healthy():
    trace = generate_trace(HOT, N)
    result = _routed(trace, _ring(), short_circuits=_short_circuits(trace))
    c = result.counters
    assert c["failovers"] == 0 and c["node_losses"] == 0
    assert c["short_circuits"] > 0 and c["coalesced"] > 0
    return result


def _case_routed_rebalanced():
    trace = generate_trace(HOT, N)
    router = _ring()
    assert router.rebalance(_shard_loads(trace), max_moves=4)
    return _routed(trace, router)


def _case_routed_naive():
    trace = generate_trace(HOT, N)
    result = _routed(trace, _ring(), optimized=False)
    assert result.counters["cache_hits"] == 0
    return result


def _case_routed_saturated():
    trace = generate_trace(HOT, N)
    result = _routed(trace, _ring(), node_budget=2, servers_per_node=1)
    c = result.counters
    assert c["node_saturated"] > 0 and c["degraded"] > 0
    return result


def _case_routed_node_loss():
    trace = generate_trace(HOT, N)
    router = _ring()
    hot_node, _ = router.route(max(
        _shard_loads(trace).items(), key=lambda item: (item[1], -item[0])
    )[0])
    mid = trace[len(trace) // 2].arrival
    result = _routed(trace, router, node_down=((mid, hot_node),))
    c = result.counters
    assert c["node_losses"] == 1 and c["failovers"] > 0
    return result


CASES = {
    "single-optimized": (
        _case_single_optimized,
        "0bc43a80eb7b1630e525171e7e99d4e0a67fca6420c88bd5c72ef163c7265b74",
    ),
    "single-naive": (
        _case_single_naive,
        "9799b726fb1eb445567120f3b9e368ca6ef9a00128e2dbfbdaebdd7bb50d7dd3",
    ),
    "single-saturated": (
        _case_single_saturated,
        "fcff916418c452d0b23b3d685603bebceede1b6ddeb0594eefa86965be3afbd1",
    ),
    "routed-healthy": (
        _case_routed_healthy,
        "d1edb9c408079e69857299de058df218f4a51ce3dabb56437bb0e6953126bcdc",
    ),
    "routed-rebalanced": (
        _case_routed_rebalanced,
        "37829afaaf3789435db3bacf8e53c22dcbfbe61f150eac2e98f9f9fa9423a41f",
    ),
    "routed-naive": (
        _case_routed_naive,
        "1c97676ad053ddffdd6a6c1047f0482dc5c76ff0321d909634120901de512d0a",
    ),
    "routed-saturated": (
        _case_routed_saturated,
        "8cc621f960c9c167c464f4c4cefdce5cd41a0bb2cf6a32b5d081325566d996e1",
    ),
    "routed-node-loss": (
        _case_routed_node_loss,
        "a28df7dd929b1b47e8edc11c916fe5334e1639402a2105bdf22e20f1ebcc4ab1",
    ),
}

#: sha256 of the JSONL log of the single-node optimised replay
EVENT_LOG_SHA256 = (
    "336641056c18d20bf87dca5915e57669e74fe38cc5c3568deec4f00751b3ec74"
)


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_result_is_pinned(case):
    run, expected = CASES[case]
    assert _digest(run()) == expected


def test_single_node_event_log_is_pinned():
    trace = generate_trace(TRAFFIC, N)
    buf = io.StringIO()
    sink = JsonlSink(buf, params={"case": "single-optimized"})
    collector = TelemetryCollector(capacity=8192, sink=sink)
    result = _single(trace, short_circuits=_short_circuits(trace),
                     telemetry=collector, codec="u16q")
    sink.close()
    assert _digest(result) == CASES["single-optimized"][1]
    log = buf.getvalue().encode()
    assert hashlib.sha256(log).hexdigest() == EVENT_LOG_SHA256

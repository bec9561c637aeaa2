"""Every serving knob is checked once, by the runtime object that uses it."""

from __future__ import annotations

import pytest

from repro.exceptions import ServeError
from repro.serve import (
    AdmissionPolicy,
    ServeCostModel,
    ShardRouter,
    TelemetryCollector,
    apply_edge_updates,
    replay_virtual,
)


def _replay(**knob):
    return replay_virtual([], n=8, shard_rows=4, **knob)


@pytest.mark.parametrize(
    ("knob", "build"),
    [
        ("cache_shards", lambda: _replay(cache_shards=0)),
        ("cache_shards", lambda: _replay(cache_shards=True)),
        ("num_servers", lambda: _replay(num_servers=0)),
        ("batch_window", lambda: _replay(batch_window=-1.0)),
        ("batch_window", lambda: _replay(batch_window=float("inf"))),
        ("batch_max", lambda: _replay(batch_max=0)),
        ("node_budget", lambda: _replay(node_budget=0)),
        ("servers_per_node", lambda: _replay(servers_per_node=2.5)),
        ("load_base", lambda: ServeCostModel(load_base=-1)),
        ("point_cost", lambda: ServeCostModel(point_cost=float("inf"))),
        ("row_cost", lambda: ServeCostModel(row_cost=float("nan"))),
        ("max_point", lambda: AdmissionPolicy(max_point=0)),
        ("hash_seed", lambda: ShardRouter(2, hash_seed=-1)),
        ("replication", lambda: ShardRouter(2, replication=3)),
        ("capacity", lambda: TelemetryCollector(capacity=0)),
        ("capacity", lambda: TelemetryCollector(capacity=2.5)),
        ("sample", lambda: TelemetryCollector(sample=0)),
        ("sample", lambda: TelemetryCollector(sample=1.5)),
        ("sample", lambda: TelemetryCollector(sample=float("nan"))),
        # checked before the store or graph is looked at
        ("prune", lambda: apply_edge_updates(None, None, [], prune="yes")),
        ("prescreen", lambda: apply_edge_updates(None, None, [], prescreen=1)),
        ("verify_before",
         lambda: apply_edge_updates(None, None, [], verify_before=0.0)),
    ],
)
def test_out_of_range_knob_is_serve_error(knob, build):
    with pytest.raises(ServeError, match=knob):
        build()


def test_cost_model_normalises_to_float():
    cost = ServeCostModel(load_base=0, point_cost=1)
    assert isinstance(cost.load_base, float)
    assert cost == ServeCostModel(load_base=0.0, point_cost=1.0)

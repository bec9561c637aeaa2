"""solve_apsp_cluster: exactness under any geometry and fault plan.

The contract under test: the cluster only decides the *virtual cost*
side of the result — the distance matrix must stay bitwise-identical
to ``solve_apsp(graph, use_flags=False)`` for every node count,
shard size, solver, straggler, and node kill.
"""

from __future__ import annotations

import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DijkstraCostModel, modified_dijkstra_sssp
from repro.core.runner import solve_apsp
from repro.core.state import new_state
from repro.dist import (
    CLUSTER_COMMODITY,
    CLUSTER_FAST,
    ClusterSpec,
    solve_apsp_cluster,
)
from repro.exceptions import FaultPlanError, SimulationError
from repro.faults import FaultPlan, FaultSpec, parse_fault_plan
from repro.graphs.generators import (
    attach_negative_weights,
    attach_random_weights,
    erdos_renyi,
)


@pytest.fixture(scope="module")
def reference_dist(small_weighted):
    return solve_apsp(small_weighted, use_flags=False).dist


class TestExactness:
    def test_fast_cluster_bitwise_equal(self, small_weighted,
                                        reference_dist):
        result = solve_apsp_cluster(small_weighted, CLUSTER_FAST)
        assert result.dist.tobytes() == reference_dist.tobytes()

    def test_commodity_cluster_same_answer_higher_cost(
        self, small_weighted, reference_dist
    ):
        fast = solve_apsp_cluster(small_weighted, CLUSTER_FAST)
        slow = solve_apsp_cluster(small_weighted, CLUSTER_COMMODITY)
        assert slow.dist.tobytes() == reference_dist.tobytes()
        # the commodity interconnect only changes the bill
        assert slow.makespan > fast.makespan
        assert slow.network_bytes == fast.network_bytes

    @settings(max_examples=20, deadline=None)
    @given(
        num_nodes=st.integers(min_value=1, max_value=6),
        threads=st.integers(min_value=1, max_value=8),
        shard_rows=st.integers(min_value=1, max_value=40),
    )
    def test_any_geometry_bitwise_equal(
        self, small_weighted, reference_dist, num_nodes, threads,
        shard_rows
    ):
        cluster = ClusterSpec(
            name="t", num_nodes=num_nodes, threads_per_node=threads
        )
        result = solve_apsp_cluster(
            small_weighted, cluster, shard_rows=shard_rows
        )
        assert result.dist.tobytes() == reference_dist.tobytes()
        assert result.num_shards == -(-small_weighted.num_vertices
                                      // shard_rows)

    def test_registry_solvers_agree(self, small_weighted,
                                    reference_dist):
        result = solve_apsp_cluster(
            small_weighted, CLUSTER_FAST, algorithm="johnson"
        )
        # johnson is exact on a non-negative graph; through the cluster
        # pipeline it must match the sweep family to the last ulp as well
        assert np.array_equal(result.dist, reference_dist)


class TestFaults:
    def test_node_kill_recovers_bitwise(self, small_weighted,
                                        reference_dist):
        plan = FaultPlan((FaultSpec(kind="kill", worker=1,
                                    after_claims=1),))
        clean = solve_apsp_cluster(small_weighted, CLUSTER_FAST)
        faulted = solve_apsp_cluster(
            small_weighted, CLUSTER_FAST, fault_plan=plan
        )
        assert faulted.dist.tobytes() == reference_dist.tobytes()
        assert faulted.lost_ranks == (1,)
        assert faulted.recovered_by  # someone re-solved the lost shards
        assert all(r != 1 for r in faulted.recovered_by.values())
        # recovery time lands on survivors' timelines; the *makespan*
        # may even drop (shards recovered by the assembly rank stop
        # paying network), so gate the recovery cost itself
        assert clean.total_work == faulted.total_work
        assert sum(r["recovery"] for r in faulted.per_rank) > 0
        assert all(r["recovery"] == 0.0 for r in clean.per_rank)

    def test_straggler_stalls_but_does_not_change_answers(
        self, small_weighted, reference_dist
    ):
        plan = parse_fault_plan("stall:worker=0,for=1e6")
        clean = solve_apsp_cluster(small_weighted, CLUSTER_FAST)
        faulted = solve_apsp_cluster(
            small_weighted, CLUSTER_FAST, fault_plan=plan
        )
        assert faulted.dist.tobytes() == reference_dist.tobytes()
        assert faulted.lost_ranks == ()
        assert faulted.makespan > clean.makespan
        assert faulted.per_rank[0]["stall"] == 1e6

    @settings(max_examples=15, deadline=None)
    @given(
        victim=st.integers(min_value=0, max_value=3),
        after=st.integers(min_value=1, max_value=4),
        stalled=st.integers(min_value=0, max_value=3),
    )
    def test_any_kill_stall_combo_bitwise_equal(
        self, small_weighted, reference_dist, victim, after, stalled
    ):
        plan = FaultPlan((
            FaultSpec(kind="kill", worker=victim, after_claims=after),
            FaultSpec(kind="stall", worker=stalled, seconds=123.0),
        ))
        result = solve_apsp_cluster(
            small_weighted, CLUSTER_FAST, fault_plan=plan
        )
        assert result.dist.tobytes() == reference_dist.tobytes()
        # shards are dealt round-robin; a kill armed after more claims
        # than the victim owns never fires
        owned = len(range(victim, result.num_shards, CLUSTER_FAST.num_nodes))
        assert result.lost_ranks == ((victim,) if after <= owned else ())

    def test_killing_every_rank_is_rejected(self, small_weighted):
        plan = FaultPlan(tuple(
            FaultSpec(kind="kill", worker=w, after_claims=1)
            for w in range(CLUSTER_FAST.num_nodes)
        ))
        with pytest.raises(FaultPlanError, match="kills every rank"):
            solve_apsp_cluster(small_weighted, CLUSTER_FAST,
                               fault_plan=plan)

    def test_unsupported_fault_kind_rejected(self, small_weighted):
        plan = FaultPlan((FaultSpec(kind="raise", worker=0,
                                    iteration=0),))
        with pytest.raises(FaultPlanError, match="kill/stall"):
            solve_apsp_cluster(small_weighted, CLUSTER_FAST,
                               fault_plan=plan)


class TestCostModel:
    def test_network_bytes_are_remote_elements(self, small_weighted):
        result = solve_apsp_cluster(small_weighted, CLUSTER_FAST)
        n = small_weighted.num_vertices
        # every shard not owned by rank 0 ships n*8 bytes per row
        remote_rows = sum(
            min(result.shard_rows, n - s * result.shard_rows)
            for s in range(result.num_shards)
            if s % CLUSTER_FAST.num_nodes != 0
        )
        assert result.network_bytes == remote_rows * n * 8

    def test_assembly_prices_each_remote_shard_as_one_message(
        self, small_weighted
    ):
        result = solve_apsp_cluster(small_weighted, CLUSTER_FAST)
        n = small_weighted.num_vertices
        expected = 0.0
        for s in range(result.num_shards):
            if s % CLUSTER_FAST.num_nodes != 0:
                rows = min(result.shard_rows, n - s * result.shard_rows)
                expected += CLUSTER_FAST.transfer_cost(rows * n)
        assert result.assembly_time == expected

    def test_single_node_ships_nothing(self, small_weighted):
        cluster = ClusterSpec(name="solo", num_nodes=1,
                              threads_per_node=4)
        result = solve_apsp_cluster(small_weighted, cluster)
        assert result.network_bytes == 0
        assert result.assembly_time == 0.0

    def test_makespan_includes_assembly(self, small_weighted):
        result = solve_apsp_cluster(small_weighted, CLUSTER_FAST)
        slowest = max(r["compute"] + r["recovery"] + r["stall"]
                      for r in result.per_rank)
        assert result.makespan == pytest.approx(
            slowest + result.assembly_time
        )

    def test_summary_is_json_ready(self, small_weighted):
        result = solve_apsp_cluster(small_weighted, CLUSTER_FAST)
        summary = result.to_summary()
        parsed = json.loads(json.dumps(summary))
        assert parsed["num_nodes"] == CLUSTER_FAST.num_nodes
        assert parsed["recovered_shards"] == 0


def per_source_sweeps(graph, sources, *, use_flags, queue):
    """Reference rows and prices: one flagless ``modified_dijkstra_sssp``
    per source on a full state, each priced with ``sweep_cost``."""
    assert use_flags is False
    state = new_state(graph.num_vertices)
    counts = [
        modified_dijkstra_sssp(
            graph, int(s), state, queue=queue, use_flags=False
        )
        for s in sources
    ]
    return SimpleNamespace(
        dist=state.dist,
        work_vector=lambda model: np.array(
            [model.sweep_cost(c) for c in counts]
        ),
    )


@pytest.fixture(scope="module")
def negative_graph():
    graph = attach_negative_weights(
        attach_random_weights(
            erdos_renyi(60, 0.1, seed=13, directed=True), seed=14
        ),
        seed=15,
    )
    assert graph.has_negative_weights
    return graph


class TestPricing:
    """The one native sweep prices every source as the per-source loop
    would: same rows, same work, same timelines."""

    @pytest.mark.parametrize("queue", ["fifo", "heap"])
    @pytest.mark.parametrize("algorithm", ["parapsp", "johnson"])
    @pytest.mark.parametrize("faulted", [False, True])
    def test_matches_per_source_sweeps(
        self, small_weighted, negative_graph, queue, algorithm, faulted
    ):
        graph = negative_graph if algorithm == "johnson" else small_weighted
        plan = FaultPlan((
            FaultSpec(kind="kill", worker=1, after_claims=2),
            FaultSpec(kind="stall", worker=2, seconds=321.0),
        )) if faulted else None
        kwargs = dict(
            fault_plan=plan,
            cost_model=DijkstraCostModel(pop=2.5, call=17.0),
            queue=queue,
            algorithm=algorithm,
        )
        got = solve_apsp_cluster(graph, CLUSTER_FAST, **kwargs)
        with mock.patch("repro.dist.build.run_sweep", per_source_sweeps):
            want = solve_apsp_cluster(graph, CLUSTER_FAST, **kwargs)
        assert got.dist.tobytes() == want.dist.tobytes()
        assert got.total_work == want.total_work
        assert got.makespan == want.makespan
        assert got.per_rank == want.per_rank
        assert got.lost_ranks == want.lost_ranks == ((1,) if faulted else ())


class TestValidation:
    def test_empty_graph_rejected(self):
        from repro.graphs import from_edges

        empty = from_edges([], num_vertices=0)
        with pytest.raises(SimulationError, match="non-empty"):
            solve_apsp_cluster(empty, CLUSTER_FAST)

    def test_bad_shard_rows_rejected(self, small_weighted):
        with pytest.raises(SimulationError, match="shard_rows"):
            solve_apsp_cluster(small_weighted, CLUSTER_FAST,
                               shard_rows=0)

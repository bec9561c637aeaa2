"""Johnson's algorithm: potentials, reweighting, negative cycles."""

import numpy as np
import pytest

from repro.core import solve_apsp, solve_apsp_shards
from repro.core.johnson import (
    bellman_ford_apsp,
    bellman_ford_potentials,
    bellman_ford_sssp,
    reweight_graph,
)
from repro.exceptions import NegativeCycleError, NegativeWeightError
from repro.graphs import (
    attach_negative_weights,
    attach_random_weights,
    erdos_renyi,
    negative_cycle_graph,
)
from repro.obs import MetricsRegistry, use_registry


@pytest.fixture(scope="module")
def base_graph():
    return attach_random_weights(
        erdos_renyi(60, 0.1, seed=13, directed=True), seed=14
    )


@pytest.fixture(scope="module")
def negative_graph(base_graph):
    g = attach_negative_weights(base_graph, seed=15)
    assert g.has_negative_weights
    return g


class TestPotentials:
    def test_nonnegative_graph_gives_zero_potentials(self, base_graph):
        h, passes, relaxations = bellman_ford_potentials(base_graph)
        assert np.all(h == 0.0)
        assert passes == 1  # fixpoint on the first pass
        assert relaxations == base_graph.indices.size

    def test_reweighted_graph_is_nonnegative(self, negative_graph):
        h, _, _ = bellman_ford_potentials(negative_graph)
        inner = reweight_graph(negative_graph, h)
        assert np.all(inner.weights >= 0.0)
        assert not inner.has_negative_weights

    def test_potentials_satisfy_triangle_fixpoint(self, negative_graph):
        h, _, _ = bellman_ford_potentials(negative_graph)
        src = np.repeat(
            np.arange(negative_graph.num_vertices),
            np.diff(negative_graph.indptr),
        )
        assert np.all(
            h[negative_graph.indices] <= h[src] + negative_graph.weights
        )

    def test_negative_cycle_raises_with_witness(self):
        with pytest.raises(NegativeCycleError) as info:
            bellman_ford_potentials(negative_cycle_graph())
        assert info.value.witness in (0, 1, 2)


class TestReferenceOracle:
    def test_sssp_matches_dijkstra_on_nonnegative(self, base_graph):
        from repro.core.dijkstra import dijkstra_sssp

        for s in (0, 7, 31):
            ref, _ = dijkstra_sssp(base_graph, s)
            bf = bellman_ford_sssp(base_graph, s)
            assert np.allclose(bf, ref, equal_nan=False)
            assert np.array_equal(np.isfinite(bf), np.isfinite(ref))

    def test_sssp_negative_cycle_detection(self):
        with pytest.raises(NegativeCycleError):
            bellman_ford_sssp(negative_cycle_graph(), 0)

    def test_sssp_from_unaffected_source_succeeds(self):
        # vertex 3 hangs off the cycle and cannot reach it
        dist = bellman_ford_sssp(negative_cycle_graph(), 3)
        assert dist[3] == 0.0
        assert not np.isfinite(dist[0])


class TestSolve:
    def test_matches_bellman_ford_on_negative_graph(self, negative_graph):
        r = solve_apsp(negative_graph, algorithm="johnson")
        ref = bellman_ford_apsp(negative_graph)
        assert np.array_equal(np.isfinite(r.dist), np.isfinite(ref))
        finite = np.isfinite(ref)
        assert np.allclose(r.dist[finite], ref[finite])
        assert r.extra["johnson.reweighted"] == 1.0
        assert r.extra["johnson.bf_passes"] >= 1

    def test_bitwise_parity_with_parapsp_on_nonnegative(self, base_graph):
        """Zero potentials mean the inner graph IS the input graph, so
        johnson and parapsp run the identical code path."""
        ref = solve_apsp(base_graph, algorithm="parapsp")
        r = solve_apsp(base_graph, algorithm="johnson")
        assert np.array_equal(r.dist, ref.dist)
        assert r.extra["johnson.reweighted"] == 0.0

    def test_negative_cycle_raises_typed_error(self):
        with pytest.raises(NegativeCycleError):
            solve_apsp(negative_cycle_graph(), algorithm="johnson")

    def test_other_solvers_reject_negative_weights(self, negative_graph):
        for alg in ("parapsp", "seq-basic"):
            with pytest.raises(NegativeWeightError, match="johnson"):
                solve_apsp(negative_graph, algorithm=alg)

    def test_sim_backend_allclose(self, negative_graph):
        serial = solve_apsp(negative_graph, algorithm="johnson")
        sim = solve_apsp(
            negative_graph, algorithm="johnson", backend="sim",
            num_threads=8,
        )
        finite = np.isfinite(serial.dist)
        assert np.array_equal(finite, np.isfinite(sim.dist))
        assert np.allclose(sim.dist[finite], serial.dist[finite])
        # the Bellman–Ford phase is charged in virtual time
        assert sim.phase_times.other > 0

    def test_batched_matches_unbatched(self, negative_graph):
        """One worker against two serial virtual workers."""
        a = solve_apsp(negative_graph, algorithm="johnson")
        b = solve_apsp(negative_graph, algorithm="johnson", num_threads=2)
        assert np.array_equal(
            np.isfinite(a.dist), np.isfinite(b.dist)
        )
        finite = np.isfinite(a.dist)
        assert np.allclose(a.dist[finite], b.dist[finite])

    def test_bf_counters_emitted(self, negative_graph):
        registry = MetricsRegistry()
        with use_registry(registry):
            solve_apsp(negative_graph, algorithm="johnson")
        counters = registry.counters()
        assert counters["johnson.bf.passes"] >= 1
        assert counters["johnson.bf.relaxations"] > 0
        assert registry.gauges()["johnson.reweighted"] == 1.0


class TestShards:
    def test_shards_reassemble_to_solve(self, negative_graph):
        ref = solve_apsp(negative_graph, algorithm="johnson")
        blocks = [
            block.copy()
            for _, block in solve_apsp_shards(
                negative_graph, shard_rows=16, algorithm="johnson"
            )
        ]
        full = np.vstack(blocks)
        finite = np.isfinite(ref.dist)
        assert np.array_equal(finite, np.isfinite(full))
        assert np.allclose(full[finite], ref.dist[finite])

    def test_shard_blocks_are_unreweighted(self, negative_graph):
        """Each yielded block must be in true-distance space (diagonal
        zero), not the reweighted inner space."""
        for start, block in solve_apsp_shards(
            negative_graph, shard_rows=16, algorithm="johnson"
        ):
            k = block.shape[0]
            diag = block[np.arange(k), np.arange(start, start + k)]
            assert np.all(diag == 0.0)

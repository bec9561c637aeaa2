"""Distributed-memory ParAPSP simulation (§7 future-work extension)."""

import numpy as np
import pytest

from repro.baselines import reference_apsp
from repro.dist import (
    CLUSTER_COMMODITY,
    CLUSTER_FAST,
    ClusterSpec,
    simulate_distributed_apsp,
)
from repro.exceptions import SimulationError
from tests.conftest import assert_same_apsp


def cluster(nodes=2, threads=4, **kw):
    return ClusterSpec(
        name="test", num_nodes=nodes, threads_per_node=threads, **kw
    )


class TestClusterSpec:
    def test_worker_geometry(self):
        c = cluster(nodes=3, threads=4)
        assert c.total_workers == 12
        assert c.rank_of_worker(0) == 0
        assert c.rank_of_worker(4) == 1
        assert c.rank_of_worker(11) == 2

    def test_broadcast_delay_zero_single_node(self):
        assert cluster(nodes=1).row_broadcast_delay(1000) == 0.0

    def test_broadcast_delay_alpha_beta(self):
        c = cluster(nodes=2, latency=100.0, per_element_cost=2.0)
        assert c.row_broadcast_delay(50) == 100.0 + 100.0

    def test_transfer_cost_is_the_broadcast_delay(self):
        c = cluster(nodes=3, latency=100.0, per_element_cost=2.0)
        assert c.transfer_cost(0) == 100.0
        assert c.transfer_cost(50) == 200.0
        assert c.row_broadcast_delay(50) == c.transfer_cost(50)

    def test_broadcast_bytes(self):
        c = cluster(nodes=4)
        assert c.row_broadcast_bytes(100) == 8 * 100 * 3

    def test_validation(self):
        with pytest.raises(SimulationError):
            cluster(nodes=0)
        with pytest.raises(SimulationError):
            cluster(threads=0)
        with pytest.raises(SimulationError):
            cluster(threads=64)  # exceeds MACHINE_I cores
        with pytest.raises(SimulationError):
            cluster(latency=-1.0)

    def test_presets(self):
        assert CLUSTER_FAST.latency < CLUSTER_COMMODITY.latency


class TestSimulation:
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_exact_at_any_node_count(self, small_weighted, nodes):
        r = simulate_distributed_apsp(small_weighted, cluster(nodes=nodes))
        assert_same_apsp(r.dist, reference_apsp(small_weighted))

    def test_more_nodes_reduce_makespan(self):
        # big enough that parallelism beats the delayed-reuse penalty
        from repro.graphs import load_dataset

        graph = load_dataset("WordNet", scale=600)
        times = {
            nodes: simulate_distributed_apsp(
                graph, cluster(nodes=nodes, threads=8)
            ).makespan
            for nodes in (1, 2, 4)
        }
        assert times[4] < times[2] < times[1]

    def test_delayed_reuse_costs_work(self, wordnet_tiny):
        """The structural trade-off: remote rows arrive late, so multi-
        node runs do more algorithmic work than single-node runs."""
        w1 = simulate_distributed_apsp(
            wordnet_tiny, cluster(nodes=1, threads=8)
        ).total_work
        w4 = simulate_distributed_apsp(
            wordnet_tiny, cluster(nodes=4, threads=8)
        ).total_work
        assert w4 >= w1

    def test_slower_network_costs_more_work(self, wordnet_tiny):
        fast = simulate_distributed_apsp(
            wordnet_tiny,
            cluster(nodes=4, threads=8, latency=1_000.0, per_element_cost=0.1),
        ).total_work
        slow = simulate_distributed_apsp(
            wordnet_tiny,
            cluster(nodes=4, threads=8, latency=200_000.0,
                    per_element_cost=50.0),
        ).total_work
        assert slow >= fast

    def test_network_bytes_accounted(self, small_weighted):
        n = small_weighted.num_vertices
        r = simulate_distributed_apsp(small_weighted, cluster(nodes=3))
        assert r.network_bytes == n * 8 * n * 2

    def test_single_node_no_traffic(self, small_weighted):
        r = simulate_distributed_apsp(small_weighted, cluster(nodes=1))
        assert r.network_bytes == 0

    def test_custom_order(self, small_weighted):
        rng = np.random.default_rng(0)
        order = rng.permutation(small_weighted.num_vertices)
        r = simulate_distributed_apsp(
            small_weighted, cluster(), order=order
        )
        assert_same_apsp(r.dist, reference_apsp(small_weighted))

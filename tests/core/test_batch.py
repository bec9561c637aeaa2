"""The one-worker lockstep sweep engine and its blocked kernels."""

import numpy as np
import pytest

from repro.core.batch import BLOCK, SPRINT_THRESHOLD, run_block
from repro.core.kernels import merge_block, merge_row, relax_block, relax_edges
from repro.core.state import new_state
from repro.core.sweep import run_sweep
from repro.obs import MetricsRegistry, use_registry
from tests.conftest import assert_same_apsp
from tests.integration.test_property_batch import in_order_sweep


class TestKernelParity:
    """The blocked kernels must act bitwise like the row-kernel loop."""

    def _setup(self, graph, seed=0):
        n = graph.num_vertices
        rng = np.random.default_rng(seed)
        dist = rng.uniform(1.0, 50.0, size=(n, n))
        np.fill_diagonal(dist, 0.0)
        rows = np.array([1, 3, 4], dtype=np.int64) % n
        hubs = np.array([0, 2, 0], dtype=np.int64) % n
        # rows must be duplicate-free for the scatter contract
        rows, idx = np.unique(rows, return_index=True)
        return dist, rows, hubs[idx]

    def test_merge_block_matches_row_loop(self, small_weighted):
        dist_a, rows, hubs = self._setup(small_weighted)
        dist_b = dist_a.copy()
        for r, h in zip(rows, hubs):
            merge_row(dist_a[r], dist_a[h], float(dist_a[r, h]))
        merge_block(dist_b, rows, hubs)
        assert np.array_equal(dist_a, dist_b)

    def test_relax_block_matches_row_loop(self, small_weighted):
        g = small_weighted
        dist_a, rows, hubs = self._setup(g, seed=3)
        dist_b = dist_a.copy()
        targets_a, lens_a = [], []
        for r, h in zip(rows, hubs):
            lo, hi = g.indptr[h], g.indptr[h + 1]
            got, _ = relax_edges(
                dist_a[r], g.indices[lo:hi], g.weights[lo:hi],
                float(dist_a[r, h]),
            )
            targets_a.append(got)
            lens_a.append(hi - lo)
        targets_b, lens_b = relax_block(
            dist_b, rows, hubs, g.indptr, g.indices, g.weights
        )
        assert np.array_equal(dist_a, dist_b)
        assert lens_a == list(lens_b)
        # enqueue sets must match *in CSR order* — queue contents feed
        # the pop sequence, so ordering is part of the bitwise contract
        assert len(targets_a) == len(targets_b)
        for got_a, got_b in zip(targets_a, targets_b):
            assert np.array_equal(got_a, got_b)


class TestRunBlock:
    @pytest.mark.parametrize("queue", ["fifo", "heap"])
    def test_whole_graph_block_bitwise(self, small_weighted, queue):
        """One block of every source, wider than BLOCK: still exact."""
        g = small_weighted
        n = g.num_vertices
        order = np.arange(n)
        dist, per_source = in_order_sweep(g, order, queue=queue)
        state = new_state(n)
        got = run_block(g, state, order, order.copy(), queue=queue)
        assert np.array_equal(state.dist, dist)
        assert len(got) == n
        for s, counts in got.items():
            assert counts == per_source[s]

    def test_flagless_block_is_plain_sssp(self, small_weighted):
        g = small_weighted
        order = np.arange(g.num_vertices)
        dist, per_source = in_order_sweep(g, order, use_flags=False)
        out = run_sweep(g, order, use_flags=False)
        assert np.array_equal(out.dist, dist)
        assert out.per_source == per_source

    def test_sprint_path_covered(self, toy_graph):
        """A block that shrinks below the sprint threshold runs inline
        and must still be bitwise-identical."""
        g = toy_graph
        n = g.num_vertices
        assert n > SPRINT_THRESHOLD  # blocks shrink below it mid-run
        order = np.arange(n)
        dist, per_source = in_order_sweep(g, order)
        registry = MetricsRegistry()
        with use_registry(registry):
            out = run_sweep(g, order)
        assert np.array_equal(out.dist, dist)
        assert out.per_source == per_source
        assert registry.counters()["kernel.batch.sprints"] >= 1


class TestBatchedSweepBackends:
    def test_process_backend_exact(self, small_weighted, reference):
        g = small_weighted
        out = run_sweep(
            g, np.arange(g.num_vertices), backend="process", num_threads=2
        )
        assert_same_apsp(out.dist, reference(g))

    def test_process_one_worker_runs_lockstep(self, small_weighted):
        """The process backend's one-worker fallback is a one-worker
        sweep: lockstep blocks, bitwise the in-order sweep."""
        g = small_weighted
        order = np.arange(g.num_vertices)
        dist, per_source = in_order_sweep(g, order)
        registry = MetricsRegistry()
        with use_registry(registry):
            out = run_sweep(g, order, backend="process", num_threads=1)
        assert out.dist.tobytes() == dist.tobytes()
        assert out.per_source == per_source
        assert registry.counters()["kernel.batch.blocks"] >= 1

    def test_emits_batch_counters(self, small_weighted):
        g = small_weighted
        registry = MetricsRegistry()
        with use_registry(registry):
            run_sweep(g, np.arange(g.num_vertices))
        counters = registry.counters()
        assert counters["kernel.batch.blocks"] == -(-g.num_vertices // BLOCK)

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_multi_worker_runs_per_source(self, small_weighted, backend):
        g = small_weighted
        registry = MetricsRegistry()
        with use_registry(registry):
            run_sweep(
                g, np.arange(g.num_vertices), backend=backend, num_threads=2
            )
        counters = registry.counters()
        assert counters["sweep.count"] == g.num_vertices
        assert not any(key.startswith("kernel.batch.") for key in counters)

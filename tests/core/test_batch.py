"""Sweep dispatch by worker count: every count claims single sources."""

import numpy as np
import pytest

from repro.core import native
from repro.core.state import new_state
from repro.core.sweep import run_sweep
from repro.obs import MetricsRegistry, use_registry
from repro.types import OpCounts
from tests.conftest import assert_same_apsp
from tests.integration.test_property_batch import in_order_sweep


class TestRunBlock:
    @pytest.mark.skipif(
        native.kernel_name() != "native", reason=native.kernel_name()
    )
    @pytest.mark.parametrize("queue", ["fifo", "heap"])
    def test_whole_graph_block_bitwise(self, small_weighted, queue):
        """Every source through one native binding, in order: bitwise
        the in-order Python sweep."""
        g = small_weighted
        n = g.num_vertices
        order = np.arange(n)
        dist, per_source = in_order_sweep(g, order, queue=queue)
        state = new_state(n)
        kernel = native.bind(g, state, queue=queue, use_flags=True)
        for s in order.tolist():
            kernel(s)
        kernel.close()
        assert state.dist.tobytes() == dist.tobytes()
        counts = kernel.counts[:, :6].tolist()
        assert [OpCounts(*row) for row in counts] == per_source

    def test_flagless_block_is_plain_sssp(self, small_weighted):
        g = small_weighted
        order = np.arange(g.num_vertices)
        dist, per_source = in_order_sweep(g, order, use_flags=False)
        out = run_sweep(g, order, use_flags=False)
        assert np.array_equal(out.dist, dist)
        assert out.per_source == per_source


class TestBatchedSweepBackends:
    def test_process_backend_exact(self, small_weighted, reference):
        g = small_weighted
        out = run_sweep(
            g, np.arange(g.num_vertices), backend="process", num_threads=2
        )
        assert_same_apsp(out.dist, reference(g))

    def test_process_one_worker_is_in_order(self, small_weighted):
        """The process backend's one-worker fallback is the in-process
        one-worker sweep: bitwise the in-order sweep, one claim per
        source."""
        g = small_weighted
        order = np.arange(g.num_vertices)
        dist, per_source = in_order_sweep(g, order)
        registry = MetricsRegistry()
        with use_registry(registry):
            out = run_sweep(g, order, backend="process", num_threads=1)
        assert out.dist.tobytes() == dist.tobytes()
        assert out.per_source == per_source
        assert registry.counters()["sweep.count"] == g.num_vertices

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
        assert counters["ops.pops"] >= g.num_vertices

"""The sweep engine (real backends)."""

import numpy as np
import pytest

from repro.core import native, run_sweep
from repro.core.costs import DEFAULT_COST_MODEL, DijkstraCostModel
from repro.exceptions import AlgorithmError, BackendError
from repro.graphs.rmat import rmat
from repro.types import OpCounts
from tests.conftest import assert_same_apsp


class TestRunSweep:
    def test_identity_order_serial(self, small_weighted, reference):
        n = small_weighted.num_vertices
        out = run_sweep(small_weighted, np.arange(n))
        assert_same_apsp(out.dist, reference(small_weighted))
        assert len(out.per_source) == n
        assert out.elapsed_seconds > 0

    def test_arbitrary_order_exact(self, small_weighted, reference):
        n = small_weighted.num_vertices
        rng = np.random.default_rng(5)
        order = rng.permutation(n)
        out = run_sweep(small_weighted, order)
        assert_same_apsp(out.dist, reference(small_weighted))

    def test_per_source_indexed_by_vertex(self, star_graph):
        n = star_graph.num_vertices
        out = run_sweep(star_graph, np.arange(n)[::-1].copy())
        # the hub (vertex 0) relaxes n-1 edges in its own sweep
        assert out.per_source[0].edge_relaxations >= n - 1

    def test_order_must_cover_all_sources(self, toy_graph):
        with pytest.raises(AlgorithmError, match="all 5 sources"):
            run_sweep(toy_graph, np.array([0, 1]))

    def test_sim_backend_rejected(self, toy_graph):
        with pytest.raises(BackendError, match="simulate"):
            run_sweep(toy_graph, np.arange(5), backend="sim")

    def test_threads_backend(self, small_weighted, reference):
        n = small_weighted.num_vertices
        out = run_sweep(
            small_weighted,
            np.arange(n),
            backend="threads",
            num_threads=4,
            schedule="dynamic",
        )
        assert_same_apsp(out.dist, reference(small_weighted))

    def test_process_backend(self, small_weighted, reference):
        n = small_weighted.num_vertices
        out = run_sweep(
            small_weighted,
            np.arange(n),
            backend="process",
            num_threads=2,
        )
        assert_same_apsp(out.dist, reference(small_weighted))
        # per-source counts travelled back through the pipe
        assert sum(c.pops for c in out.per_source) > 0

    def test_work_vector_aligned(self, small_weighted):
        n = small_weighted.num_vertices
        out = run_sweep(small_weighted, np.arange(n))
        work = out.work_vector()
        assert work.shape == (n,)
        assert np.all(work > 0)

    def test_total_ops_aggregates(self, toy_graph):
        out = run_sweep(toy_graph, np.arange(5))
        total = out.total_ops()
        assert total.pops == sum(c.pops for c in out.per_source)

    @pytest.mark.parametrize("kernel", ["native", "python", "process"])
    def test_totals_and_work_vector_match_the_op_counts_path(
        self, monkeypatch, kernel
    ):
        """The count-matrix reductions equal ``OpCounts.sum`` and a
        per-source ``sweep_cost`` loop bitwise, under a cost model whose
        sums round."""
        if kernel == "native" and native.kernel_name() != "native":
            pytest.skip(native.kernel_name())
        if kernel == "python":
            monkeypatch.setattr(native, "_loaded", (None, "python (test)"))
        graph = rmat(7, 8, seed=3)
        order = np.argsort(-graph.out_degrees(), kind="stable")
        out = run_sweep(
            graph, order,
            backend="process" if kernel == "process" else "serial",
            num_threads=2 if kernel == "process" else 1,
        )
        assert out.total_ops() == OpCounts.sum(out.per_source)
        assert out.total_ops().row_merges > 0
        odd = DijkstraCostModel(
            pop=0.1, edge_relaxation=0.7, merge_comparison=0.3,
            row_merge=1.3, call=0.9,
        )
        for model in (DEFAULT_COST_MODEL, odd):
            expected = np.asarray(
                [model.sweep_cost(c) for c in out.per_source],
                dtype=np.float64,
            )
            assert out.work_vector(model).tobytes() == expected.tobytes()

    def test_use_flags_false(self, small_weighted, reference):
        n = small_weighted.num_vertices
        out = run_sweep(small_weighted, np.arange(n), use_flags=False)
        assert_same_apsp(out.dist, reference(small_weighted))
        assert out.total_ops().row_merges == 0

"""The unified solve_apsp entry point."""

import numpy as np
import pytest

from repro.core import ALGORITHMS, native, runner, solve_apsp, solver_names
from repro.exceptions import AlgorithmError
from repro.graphs.degree import degree_array
from repro.graphs.rmat import rmat
from repro.obs import MetricsRegistry, use_registry
from repro.order import compute_order
from repro.simx import MACHINE_I
from repro.types import Backend
from tests.conftest import assert_same_apsp


class TestAlgorithmRegistry:
    def test_registered_algorithms(self):
        assert set(solver_names()) == {
            "seq-basic",
            "seq-opt",
            "paralg1",
            "paralg2",
            "parapsp",
            "johnson",
        }

    def test_paper_configurations(self):
        assert ALGORITHMS["parapsp"].ordering == "multilists"
        assert ALGORITHMS["paralg2"].ordering == "selection"
        assert ALGORITHMS["paralg1"].ordering == "none"
        assert not ALGORITHMS["seq-basic"].parallel


class TestDispatch:
    def test_unknown_algorithm(self, toy_graph):
        with pytest.raises(AlgorithmError, match="unknown algorithm"):
            solve_apsp(toy_graph, algorithm="bellman")

    def test_sequential_algorithms_reject_thread_backends(self, toy_graph):
        with pytest.raises(AlgorithmError, match="sequential"):
            solve_apsp(
                toy_graph, algorithm="seq-basic", backend="threads",
                num_threads=2,
            )

    def test_sequential_on_sim_clamps_to_one_thread(self, toy_graph):
        r = solve_apsp(
            toy_graph, algorithm="seq-opt", backend="sim", num_threads=8
        )
        assert r.num_threads == 1

    def test_ordering_override(self, small_weighted, reference):
        r = solve_apsp(
            small_weighted,
            algorithm="paralg2",
            ordering="parmax",
            backend="serial",
        )
        assert r.ordering_method == "parmax"
        assert_same_apsp(r.dist, reference(small_weighted))

    def test_schedule_override_recorded(self, toy_graph):
        r = solve_apsp(
            toy_graph,
            algorithm="parapsp",
            backend="sim",
            num_threads=4,
            schedule="block",
        )
        assert r.schedule == "block"


class TestResultContents:
    def test_serial_result_fields(self, small_weighted):
        r = solve_apsp(small_weighted, algorithm="parapsp")
        assert r.backend == "serial"
        assert r.order is not None and r.order.size == small_weighted.num_vertices
        assert r.phase_times.dijkstra > 0
        assert r.per_source_work is not None
        assert r.ops.pops > 0

    def test_sim_result_has_traces(self, small_weighted):
        r = solve_apsp(
            small_weighted,
            algorithm="parapsp",
            backend="sim",
            num_threads=8,
            machine=MACHINE_I,
        )
        assert r.sim_ordering is not None
        assert r.sim_dijkstra is not None
        assert r.sim_dijkstra.num_threads == 8
        assert r.total_time == pytest.approx(
            r.phase_times.ordering + r.phase_times.dijkstra
        )

    def test_ratio_forwarded(self, small_weighted, reference):
        r = solve_apsp(small_weighted, algorithm="seq-opt", ratio=0.5)
        assert_same_apsp(r.dist, reference(small_weighted))

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0001, 2.0])
    def test_ratio_out_of_range_rejected(self, toy_graph, bad):
        with pytest.raises(AlgorithmError, match="ratio"):
            solve_apsp(toy_graph, algorithm="seq-opt", ratio=bad)

    def test_ratio_validated_through_seq_optimized(self, toy_graph):
        from repro.core import seq_optimized

        with pytest.raises(AlgorithmError, match="ratio"):
            seq_optimized(toy_graph, ratio=-1.0)

    def test_worker_count_picks_the_sweep_engine(self, small_weighted):
        """One worker and two serial virtual workers both claim single
        sources in order, so the results agree bitwise and no option is
        recorded; the result names the sweep kernel that ran."""
        registry = MetricsRegistry()
        with use_registry(registry):
            one = solve_apsp(small_weighted, algorithm="parapsp")
        assert registry.counters()["sweep.count"] == len(small_weighted)
        assert one.sweep_kernel == native.kernel_name()
        two = solve_apsp(small_weighted, algorithm="parapsp", num_threads=2)
        assert one.dist.tobytes() == two.dist.tobytes()
        assert one.ops == two.ops
        assert one.extra == two.extra == {}

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_real_backends_order_on_the_serial_executor(
        self, monkeypatch, threads
    ):
        """The threads backend orders on one serial lane, and the
        MultiLists order and method are the ones the threads executor
        gives at the solve's thread count."""
        graph = rmat(8, 8, seed=2)
        expected = compute_order(
            "multilists", degree_array(graph), num_threads=threads,
            backend="threads",
        )
        seen = []

        def spy(*args, **kwargs):
            seen.append((kwargs["backend"], kwargs["num_threads"]))
            return compute_order(*args, **kwargs)

        monkeypatch.setattr(runner, "compute_order", spy)
        result = solve_apsp(
            graph, algorithm="parapsp", backend="threads",
            num_threads=threads,
        )
        assert seen == [(Backend.SERIAL, 1)]
        assert result.ordering_method == expected.method
        assert result.order.tobytes() == expected.order.tobytes()

    def test_degree_kind_forwarded(self, directed_weighted, reference):
        r = solve_apsp(
            directed_weighted, algorithm="seq-opt", degree_kind="in"
        )
        assert_same_apsp(r.dist, reference(directed_weighted))


class TestExactnessMatrix:
    """The paper's §5 claim: identical outputs everywhere."""

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_every_algorithm_exact(self, small_weighted, reference, algorithm):
        r = solve_apsp(small_weighted, algorithm=algorithm)
        assert_same_apsp(r.dist, reference(small_weighted))

    @pytest.mark.parametrize("backend", ["serial", "threads", "process", "sim"])
    def test_every_backend_exact(self, small_weighted, reference, backend):
        r = solve_apsp(
            small_weighted,
            algorithm="parapsp",
            backend=backend,
            num_threads=3,
        )
        assert_same_apsp(r.dist, reference(small_weighted))

    @pytest.mark.parametrize("schedule", ["block", "static-cyclic", "dynamic"])
    def test_every_schedule_exact(self, small_weighted, reference, schedule):
        r = solve_apsp(
            small_weighted,
            algorithm="parapsp",
            backend="sim",
            num_threads=8,
            schedule=schedule,
        )
        assert_same_apsp(r.dist, reference(small_weighted))

    def test_directed_graph_exact(self, directed_weighted, reference):
        for algorithm in ("seq-basic", "parapsp"):
            r = solve_apsp(directed_weighted, algorithm=algorithm)
            assert_same_apsp(r.dist, reference(directed_weighted))

    def test_bitwise_identical_across_algorithms(self, small_ba):
        """Unit weights → integer distances → bitwise equality."""
        mats = [
            solve_apsp(small_ba, algorithm=a).dist
            for a in ("seq-basic", "seq-opt", "parapsp")
        ]
        assert np.array_equal(mats[0], mats[1])
        assert np.array_equal(mats[0], mats[2])

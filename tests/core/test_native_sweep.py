"""The native sweep kernel against the Python sweep it stands in for.

Contract: for any graph (disconnected, one vertex, float or dyadic
weights, zero weights), issue order, queue discipline, flag setting and
``completed_at`` gate, in-order calls of the native kernel leave the
distance matrix and the flags bitwise as an in-order loop of
``modified_dijkstra_sssp`` does, with equal per-source ``OpCounts``
and ``kernel.merge_row.*`` counters.  Fixed graphs of 65–67 vertices
take the vectorised row merge through its tail elements.
With two real threads the distances are bitwise on dyadic weights
(every sum is exact) and within float tolerance otherwise.

Also here: the loader (one library from racing first loads, the Python
fallback without a compiler), the portable build flags, counter
parity with the Python sweep, kernel and merge-ISA provenance, and the
issue-order check.
"""

import platform
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    modified_dijkstra_sssp,
    native,
    run_sweep,
    seq_adaptive,
    simulate_sweep,
    solve_apsp,
)
from repro.core.state import new_state
from repro.exceptions import AlgorithmError
from repro.graphs import CSRGraph, from_arc_arrays
from repro.graphs.rmat import rmat
from repro.obs import MetricsRegistry, use_registry
from repro.simx import default_machine
from repro.types import OpCounts
from tests.conftest import assert_same_apsp
from tests.core.test_native_rows import graphs

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
QUEUES = st.sampled_from(["fifo", "heap"])

needs_kernel = pytest.mark.skipif(
    native.kernel_name() != "native", reason=native.kernel_name()
)
needs_compiler = pytest.mark.skipif(
    native._compiler() is None, reason="no C compiler"
)


def python_sweeps(graph, order, *, queue, use_flags, completed_at, dispatch):
    """The reference: ``modified_dijkstra_sssp`` per source, in order,
    gated like the simulator gates it."""
    state = new_state(graph.num_vertices)
    per_source = [None] * graph.num_vertices
    for s in order.tolist():
        gate = None
        if completed_at is not None:
            gate = lambda t, d=dispatch[s]: completed_at[t] <= d
        per_source[s] = modified_dijkstra_sssp(
            graph, s, state, queue=queue, use_flags=use_flags, flag_gate=gate
        )
    return state, per_source


def native_sweeps(graph, order, *, queue, use_flags, completed_at, dispatch):
    state = new_state(graph.num_vertices)
    kernel = native.bind(
        graph, state, queue=queue, use_flags=use_flags,
        completed_at=completed_at,
    )
    try:
        for s in order.tolist():
            kernel(s, 0, float(dispatch[s]))
        kernel.publish()
    finally:
        kernel.close()
    return state, [OpCounts(*row) for row in kernel.counts[:, :6].tolist()]


def wide_graph(n, weights):
    """``n`` vertices, at least 64, so a row merge runs whole vector
    steps and then its ``n mod 4`` tail: a random part on the first
    ``n - 5`` ids beside a 5-vertex path, so rows of each part stay INF
    on the other.  ``"float"`` weights round in every sum; ``"zeros"``
    makes about a third of the arcs weigh exactly 0 (directed), so
    merge candidates tie with the row they would replace."""
    rng = np.random.default_rng(n)
    core = n - 5
    src = np.concatenate([rng.integers(0, core, 3 * core),
                          np.arange(core, n - 1)])
    dst = np.concatenate([rng.integers(0, core, 3 * core),
                          np.arange(core + 1, n)])
    keep = src != dst
    w = rng.uniform(0.01, 10.0, keep.sum())
    graph = from_arc_arrays(src[keep], dst[keep], w, num_vertices=n,
                            directed=weights == "zeros")
    if weights == "float":
        return graph
    return CSRGraph(
        graph.indptr, graph.indices,
        np.where(rng.random(graph.num_arcs) < 0.35, 0.0,
                 np.round(graph.weights)),
        directed=True, allow_negative=True,
    )


@needs_kernel
class TestContract:
    @staticmethod
    def check(graph, queue, use_flags, gated, seed):
        n = graph.num_vertices
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        # times on a coarse grid, so completion == dispatch is common
        dispatch = rng.integers(0, 4, n).astype(np.float64)
        completed_at = None
        if gated:
            completed_at = np.where(
                rng.random(n) < 0.3, np.inf, rng.integers(0, 4, n)
            )
        kwargs = dict(
            queue=queue, use_flags=use_flags, completed_at=completed_at,
            dispatch=dispatch,
        )
        runs, merges = [], []
        for sweeps in (python_sweeps, native_sweeps):
            registry = MetricsRegistry()
            with use_registry(registry):
                runs.append(sweeps(graph, order, **kwargs))
            # the native kernel keeps no all_inf_row diagnostic
            merges.append({
                key: value for key, value in registry.counters().items()
                if key.startswith("kernel.merge_row.")
                and key != "kernel.merge_row.all_inf_row"
            })
        (ref_state, ref_counts), (state, counts) = runs
        assert state.dist.tobytes() == ref_state.dist.tobytes()
        assert state.flag.tobytes() == ref_state.flag.tobytes()
        assert counts == ref_counts
        assert merges[0] == merges[1]
        return merges[0]

    @given(
        graph=graphs(max_n=24),
        queue=QUEUES,
        use_flags=st.booleans(),
        gated=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(**SETTINGS)
    def test_kernel_matches_python_sweep(
        self, graph, queue, use_flags, gated, seed
    ):
        self.check(graph, queue, use_flags, gated, seed)

    @pytest.mark.parametrize("queue", ["fifo", "heap"])
    @pytest.mark.parametrize("gated", [False, True])
    def test_rmat_ties(self, queue, gated):
        """Unit weights tie everywhere: the heap's ``(d, v)`` pop order
        shows in the counts."""
        self.check(rmat(8, 8, seed=5), queue, True, gated, seed=1)

    @pytest.mark.parametrize("n", [65, 66, 67])
    @pytest.mark.parametrize("weights", ["float", "zeros"])
    @pytest.mark.parametrize("queue", ["fifo", "heap"])
    @pytest.mark.parametrize("gated", [False, True])
    def test_merge_tails(self, n, weights, queue, gated):
        """The vectorised merge's tail elements, INF rows and ties:
        bitwise rows and counts, and the merge counters the Python
        sweep reports call by call."""
        merges = self.check(wide_graph(n, weights), queue, True, gated,
                            seed=n)
        assert merges["kernel.merge_row.calls"] > 0
        assert merges["kernel.merge_row.improved"] > 0
        assert merges["kernel.merge_row.noop"] > 0

    @given(
        graph=graphs(max_n=24, weights=st.sampled_from(["dyadic", "float"])),
        queue=QUEUES,
    )
    @settings(**SETTINGS)
    def test_two_threads_are_exact(self, graph, queue):
        n = graph.num_vertices
        order = np.arange(n)
        ref, _ = python_sweeps(
            graph, order, queue=queue, use_flags=True, completed_at=None,
            dispatch=np.zeros(n),
        )
        out = run_sweep(
            graph, order, backend="threads", num_threads=2, queue=queue
        )
        assert out.kernel == "native"
        if np.all(graph.weights * 4 == np.round(graph.weights * 4)):
            assert out.dist.tobytes() == ref.dist.tobytes()
        else:
            assert_same_apsp(out.dist, ref.dist)

    def test_rmat_two_threads_bitwise_on_unit_weights(self):
        graph = rmat(9, 8, seed=4)
        order = np.argsort(-graph.out_degrees(), kind="stable")
        one = run_sweep(graph, order)
        two = run_sweep(graph, order, backend="threads", num_threads=2)
        assert one.dist.tobytes() == two.dist.tobytes()


@pytest.mark.parametrize("queue", ["fifo", "heap"])
def test_counters_match_the_python_sweep(monkeypatch, queue):
    """Same registry keys and values from the count vector as from the
    Python sweep's per-call reporting, real and simulated."""
    graph = rmat(6, 8, seed=3)
    order = np.argsort(-graph.out_degrees(), kind="stable")

    def observed():
        registry = MetricsRegistry()
        with use_registry(registry):
            real = run_sweep(graph, order, queue=queue)
            sim = simulate_sweep(
                graph, order, default_machine(4), num_threads=4, queue=queue
            )
        return registry.counters(), registry.gauges(), real, sim

    counters, gauges, real, sim = observed()
    monkeypatch.setattr(native, "_loaded", (None, "python (test)"))
    py_counters, py_gauges, py_real, py_sim = observed()
    assert py_real.kernel == py_sim.kernel == "python (test)"
    assert counters == py_counters
    assert gauges == py_gauges
    assert "kernel.merge_row.all_inf_row" not in counters
    assert real.dist.tobytes() == py_real.dist.tobytes()
    assert real.per_source == py_real.per_source
    assert sim.dist.tobytes() == py_sim.dist.tobytes()
    assert sim.makespan == py_sim.makespan


class TestLoader:
    @needs_compiler
    def test_racing_first_loads_get_one_library(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "_loaded", None)
        barrier = threading.Barrier(2)
        got = []

        def first_load():
            barrier.wait()
            got.append(native.load())

        workers = [threading.Thread(target=first_load) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert got[0] is got[1] and got[0][1] == "native"
        built = list((tmp_path / "repro-apsp").iterdir())
        assert len(built) == 1 and built[0].name.startswith("_sweep-")

    @needs_compiler
    def test_racing_builds_replace_atomically(self, tmp_path):
        """Two builders (threads here, processes alike) each compile to
        a private file and rename it into place: one library, no
        leftovers, and it loads."""
        barrier = threading.Barrier(2)
        paths = []

        def build():
            barrier.wait()
            paths.append(native._build(tmp_path, native._compiler()))

        workers = [threading.Thread(target=build) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert paths[0] == paths[1]
        assert list(tmp_path.iterdir()) == [paths[0]]
        assert native._open(paths[0]).repro_sweep_scratch_new(4)

    def test_without_a_compiler_the_python_sweep_runs(
        self, monkeypatch, small_weighted
    ):
        order = np.arange(small_weighted.num_vertices)
        expected = run_sweep(small_weighted, order, queue="heap")
        monkeypatch.setattr(native, "_loaded", None)
        monkeypatch.setattr(native, "_compiler", lambda: None)
        got = run_sweep(small_weighted, order, queue="heap")
        assert got.kernel == "python (no C compiler)"
        assert native.simd_name() is None
        assert got.dist.tobytes() == expected.dist.tobytes()
        assert got.per_source == expected.per_source
        result = solve_apsp(small_weighted, backend="sim", num_threads=2)
        assert result.sweep_kernel == "python (no C compiler)"
        assert result.sweep_simd is None

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib")
    def test_package_data_ships_the_source(self):
        import tomllib
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        with open(root / "pyproject.toml", "rb") as fh:
            data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
        assert "*.c" in data["repro.core"]
        assert native.SOURCE.is_file()


def test_results_name_the_kernel(small_weighted):
    name = native.kernel_name()
    assert solve_apsp(small_weighted).sweep_kernel == name
    assert solve_apsp(small_weighted, backend="sim").sweep_kernel == name
    assert solve_apsp(
        small_weighted, backend="process", num_threads=2
    ).sweep_kernel == "python (process backend)"
    assert seq_adaptive(small_weighted).sweep_kernel is None


def test_build_targets_no_host_isa():
    """The cached library may be loaded on another CPU, so no
    ``-march``/``-m<isa>`` flag: the merge's clones dispatch at load."""
    assert [flag for flag in native.CFLAGS if flag.startswith("-m")] == []


def _host_has_avx2() -> bool:
    if platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc":
        return False
    try:
        with open("/proc/cpuinfo") as fh:
            return any(line.startswith("flags") and " avx2" in line
                       for line in fh)
    except OSError:
        return False


@needs_kernel
def test_results_name_the_merge_isa(small_weighted):
    name = native.simd_name()
    assert name in ("avx2", "scalar")
    if _host_has_avx2():
        assert name == "avx2"
    assert solve_apsp(small_weighted).sweep_simd == name
    assert solve_apsp(small_weighted, backend="sim").sweep_simd == name
    assert solve_apsp(
        small_weighted, backend="process", num_threads=2
    ).sweep_simd is None
    assert seq_adaptive(small_weighted).sweep_simd is None


@pytest.mark.parametrize("backend", ["serial", "threads", "process", "sim"])
@pytest.mark.parametrize("bad", ["repeated", "out-of-range"])
def test_order_must_be_a_permutation(backend, bad):
    graph = rmat(5, 4, seed=1)
    order = np.arange(graph.num_vertices)
    order[1] = 0 if bad == "repeated" else graph.num_vertices
    with pytest.raises(AlgorithmError, match="permutation"):
        if backend == "sim":
            simulate_sweep(graph, order, default_machine(2), num_threads=2)
        else:
            run_sweep(graph, order, backend=backend, num_threads=2)

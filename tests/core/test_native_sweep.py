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

The native claim loop (one C call per worker) sweeps in the serial
executor's issue order for every schedule, worker count and chunk, so
serial rows and counts equal the per-source Python loop's bitwise;
fault-plan runs keep claiming per source and recover to the same
matrix.

Also here: the loader (one library from racing first loads, the Python
fallback without a compiler), the portable build flags, counter
parity with the Python sweep, the process backend (native, bitwise on
unit weights, publishing like the others), kernel and merge-ISA
provenance, and the issue-order check.
"""

import ctypes
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
from repro.core.costs import DijkstraCostModel
from repro.core.state import new_state
from repro.exceptions import AlgorithmError
from repro.faults import KILL, FaultPlan
from repro.graphs import CSRGraph, from_arc_arrays
from repro.graphs.rmat import rmat
from repro.obs import MetricsRegistry, use_registry
from repro.parallel import fork_available
from repro.simx import default_machine
from repro.types import OpCounts, Schedule
from tests.conftest import assert_same_apsp
from tests.core.test_native_rows import graphs

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
QUEUES = st.sampled_from(["fifo", "heap"])
SCHEDULES = st.sampled_from(list(Schedule))

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
        schedule=SCHEDULES,
        chunk=st.sampled_from([1, 4]),
    )
    @settings(**SETTINGS)
    def test_two_threads_are_exact(self, graph, queue, schedule, chunk):
        n = graph.num_vertices
        order = np.arange(n)
        ref, _ = python_sweeps(
            graph, order, queue=queue, use_flags=True, completed_at=None,
            dispatch=np.zeros(n),
        )
        out = run_sweep(
            graph, order, backend="threads", num_threads=2, queue=queue,
            schedule=schedule, chunk=chunk,
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


def oracle_sweep(graph, order, **kwargs):
    """``run_sweep`` through the per-source Python loop (the kernel
    unloaded): the outcome and the registry's counters."""
    registry = MetricsRegistry()
    with pytest.MonkeyPatch.context() as mp, use_registry(registry):
        mp.setattr(native, "_loaded", (None, "python (test)"))
        out = run_sweep(graph, order, **kwargs)
    return out, registry


def native_sweep(graph, order, **kwargs):
    registry = MetricsRegistry()
    with use_registry(registry):
        out = run_sweep(graph, order, **kwargs)
    assert out.kernel == "native"
    return out, registry


def comparable(registry):
    # the native kernel keeps no all_inf_row diagnostic
    return {key: value for key, value in registry.counters().items()
            if key != "kernel.merge_row.all_inf_row"}


def span_paths(registry):
    return [rec.path for rec in registry.spans]


@needs_kernel
class TestClaimLoop:
    """One native call per worker claims and sweeps its sources."""

    @staticmethod
    def check_serial(graph, order, queue, threads, schedule, chunk):
        kwargs = dict(queue=queue, num_threads=threads, schedule=schedule,
                      chunk=chunk)
        ref, ref_reg = oracle_sweep(graph, order, **kwargs)
        out, reg = native_sweep(graph, order, **kwargs)
        assert out.dist.tobytes() == ref.dist.tobytes()
        assert out.counts.tobytes() == ref.counts.tobytes()
        assert comparable(reg) == comparable(ref_reg)
        n = graph.num_vertices
        if Schedule.coerce(schedule) is Schedule.DYNAMIC and n:
            counters = reg.counters()
            assert counters["schedule.dynamic.claims"] == -(-n // chunk)
            assert counters["schedule.dynamic.iterations"] == n

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("schedule", list(Schedule))
    @pytest.mark.parametrize("chunk", [1, 4])
    @pytest.mark.parametrize("queue", ["fifo", "heap"])
    def test_serial_issue_order_is_the_per_source_loops(
        self, threads, schedule, chunk, queue
    ):
        """Bitwise rows, counts and counters against the per-source
        loop, whose static schedules interleave the virtual workers."""
        graph = rmat(7, 8, seed=6)
        order = np.argsort(-graph.out_degrees(), kind="stable")
        self.check_serial(graph, order, queue, threads, schedule, chunk)

    @given(
        graph=graphs(max_n=24),
        queue=QUEUES,
        threads=st.sampled_from([1, 2, 3]),
        schedule=SCHEDULES,
        chunk=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**16),
    )
    @settings(**SETTINGS)
    def test_serial_matches_per_source_loop_on_any_graph(
        self, graph, queue, threads, schedule, chunk, seed
    ):
        order = np.random.default_rng(seed).permutation(graph.num_vertices)
        self.check_serial(graph, order, queue, threads, schedule, chunk)

    @pytest.mark.parametrize(
        "backend, threads", [("serial", 1), ("serial", 3), ("threads", 2)]
    )
    @pytest.mark.parametrize("schedule", list(Schedule))
    def test_one_block_span_per_worker_call(self, backend, threads, schedule):
        graph = rmat(6, 8, seed=3)
        out, reg = native_sweep(
            graph, np.arange(graph.num_vertices), backend=backend,
            num_threads=threads, schedule=schedule,
        )
        paths = span_paths(reg)
        calls = threads if backend == "threads" else 1
        assert sum(p.endswith("sweep.block") for p in paths) == calls
        assert not any(p.endswith("sweep.source") for p in paths)
        if backend == "threads":
            assert paths.count("parallel.worker.sweep.block") == threads

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize("schedule", list(Schedule))
    def test_fault_plan_claims_per_source_and_recovers(
        self, backend, schedule
    ):
        """Every worker dies after its first claim; the lost sources
        re-run inline, per source, to the fault-free native matrix."""
        graph = rmat(7, 8, seed=4)
        order = np.argsort(-graph.out_degrees(), kind="stable")
        plan = FaultPlan.from_dict({"faults": [
            dict(kind=KILL, worker=w, after_claims=1) for w in range(2)
        ]})
        clean, _ = native_sweep(graph, order, backend=backend,
                                num_threads=2, schedule=schedule)
        out, reg = native_sweep(
            graph, order, backend=backend, num_threads=2, schedule=schedule,
            fault_plan=plan, on_worker_death="retry",
        )
        assert reg.counters()["faults.worker_deaths"] >= 1
        paths = span_paths(reg)
        assert not any(p.endswith("sweep.block") for p in paths)
        assert sum(p.endswith("sweep.source") for p in paths) >= len(order)
        assert out.dist.tobytes() == clean.dist.tobytes()

    def test_shared_cursor_under_thread_switching(self):
        """More workers than cores on one cursor, switching every few
        bytecodes: every source is claimed exactly once and the rows
        are the serial ones."""
        graph = rmat(8, 8, seed=2)
        order = np.argsort(-graph.out_degrees(), kind="stable")
        serial = run_sweep(graph, order)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                out, reg = native_sweep(graph, order, backend="threads",
                                        num_threads=5)
                assert reg.counters()["schedule.dynamic.claims"] == len(order)
                assert reg.counters()["sweep.count"] == len(order)
                assert out.dist.tobytes() == serial.dist.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_claims_check_their_positions(self, small_weighted):
        n = small_weighted.num_vertices
        state = new_state(n)
        kernel = native.bind(small_weighted, state, queue="fifo",
                             use_flags=True)
        try:
            order = np.arange(n)
            cursor = ctypes.c_int64(0)
            with pytest.raises(AlgorithmError, match="positions"):
                kernel.sweep_claims(order, np.array([0, n]), cursor, 1)
            with pytest.raises(AlgorithmError, match="vertex ids"):
                kernel.sweep_claims(order + 1, None, cursor, 1)
            assert cursor.value == 0
            assert kernel.sweep_claims(order, order[::-1], cursor, 3) == (
                -(-n // 3)
            )
        finally:
            kernel.close()
        assert state.flag.all()

    @pytest.mark.parametrize(
        "backend, threads", [("serial", 1), ("serial", 2), ("threads", 2)]
    )
    def test_a_failed_call_raises_memory_error(
        self, monkeypatch, backend, threads
    ):
        """A claim loop returning -1 surfaces as ``MemoryError`` in the
        caller, from a worker thread too.  The kernel's own -1 (a heap
        that cannot grow) is not provoked here: it takes an allocation
        failure."""
        bind = native.bind

        def failing_bind(*args, **kwargs):
            kernel = bind(*args, **kwargs)
            kernel._claims = lambda *_: -1
            return kernel

        monkeypatch.setattr(native, "bind", failing_bind)
        graph = rmat(5, 4, seed=1)
        with pytest.raises(MemoryError, match="native sweep heap"):
            run_sweep(graph, np.arange(graph.num_vertices), backend=backend,
                      num_threads=threads)


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


@pytest.mark.parametrize("queue", ["fifo", "heap"])
def test_simulated_totals_and_work_vector_match_across_kernels(
    monkeypatch, queue
):
    """The simulated sweep's count matrix gives the same totals and work
    vector from either kernel, equal bitwise to the per-source
    ``OpCounts`` reductions, and the SIM solve's ``per_source_work`` is
    that work vector, under a cost model whose sums round."""
    graph = rmat(7, 8, seed=3)
    odd = DijkstraCostModel(
        pop=0.1, edge_relaxation=0.7, merge_comparison=0.3,
        row_merge=1.3, call=0.9,
    )

    def simulated():
        result = solve_apsp(graph, algorithm="parapsp", backend="sim",
                            num_threads=4, queue=queue, cost_model=odd)
        sweep = simulate_sweep(graph, result.order, default_machine(4),
                               num_threads=4, queue=queue, cost_model=odd)
        return sweep, result

    runs = [simulated()]
    monkeypatch.setattr(native, "_loaded", (None, "python (test)"))
    runs.append(simulated())
    for sweep, result in runs:
        assert sweep.total_ops() == OpCounts.sum(sweep.per_source)
        assert sweep.total_ops() == result.ops
        expected = np.asarray([odd.sweep_cost(c) for c in sweep.per_source])
        assert sweep.work_vector(odd).tobytes() == expected.tobytes()
        assert result.per_source_work.tobytes() == expected.tobytes()
    (ours, ours_result), (py, py_result) = runs
    assert py.kernel == py_result.sweep_kernel == "python (test)"
    assert ours.counts.tobytes() == py.counts.tobytes()
    assert ours.total_ops() == py.total_ops()
    assert ours_result.per_source_work.tobytes() == (
        py_result.per_source_work.tobytes()
    )


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
    ).sweep_kernel == name
    assert seq_adaptive(small_weighted).sweep_kernel is None


@pytest.mark.skipif(not fork_available(), reason="no fork")
class TestProcessBackend:
    """Forked workers sweep one source per work item through the body
    every backend runs, over one shared matrix and flag vector."""

    @needs_kernel
    def test_native_bitwise_and_published(self):
        graph = rmat(8, 8, seed=2)
        serial = solve_apsp(graph)
        registry = MetricsRegistry()
        with use_registry(registry):
            procs = solve_apsp(graph, backend="process", num_threads=2)
        assert procs.sweep_kernel == "native"
        assert procs.dist.tobytes() == serial.dist.tobytes()
        # the workers' count rows reach the parent's registry
        counters = registry.counters()
        assert counters["sweep.count"] == graph.num_vertices
        for field, value in procs.ops.as_dict().items():
            assert counters.get(f"ops.{field}", 0) == value, field
        assert counters["kernel.merge_row.calls"] == procs.ops.row_merges

    def test_without_the_kernel_still_exact(self, monkeypatch):
        graph = rmat(7, 8, seed=2)
        serial = solve_apsp(graph)
        monkeypatch.setattr(native, "load",
                            lambda: (None, "python (forced)"))
        procs = solve_apsp(graph, backend="process", num_threads=2)
        assert procs.sweep_kernel == "python (forced)"
        assert procs.sweep_simd is None
        assert procs.dist.tobytes() == serial.dist.tobytes()

    @pytest.mark.parametrize("use_flags", [True, False])
    def test_without_the_kernel_publishes_like_threads(self, monkeypatch,
                                                       use_flags):
        graph = rmat(6, 8, seed=1)
        monkeypatch.setattr(native, "load",
                            lambda: (None, "python (forced)"))
        published = {}
        for backend in ("threads", "process"):
            registry = MetricsRegistry()
            with use_registry(registry):
                result = solve_apsp(graph, backend=backend, num_threads=2,
                                    use_flags=use_flags)
            published[backend] = {
                k: v for k, v in registry.counters().items()
                if k == "sweep.count" or k.startswith("ops.")
            }
            assert published[backend]["sweep.count"] == graph.num_vertices
            for field, value in result.ops.as_dict().items():
                assert published[backend].get(f"ops.{field}", 0) == value
        assert published["process"].keys() == published["threads"].keys()
        if not use_flags:
            # with flags on, which rows a sweep merges depends on timing
            assert published["process"] == published["threads"]


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
    ).sweep_simd == name
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

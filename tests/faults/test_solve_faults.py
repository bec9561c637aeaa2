"""End-to-end crash recovery through :func:`solve_apsp`.

The acceptance bar of the fault-injection subsystem: a plan that
SIGKILLs a process worker mid-sweep must still produce the exact APSP
distances, in bounded time, with the recovery visible in the
``faults.*`` counters.

Exactness notes.  The repo's correctness bar for real backends is
:func:`tests.conftest.assert_same_apsp` — identical reachability, equal
distances to float tolerance.  Bit-level equality is a *determinism*
property, not a correctness one: which finished rows a sweep merges
depends on timing, and a merge computes the same shortest distance
along a different floating-point summation order (ulp-level wiggle).
The deterministic backends (serial, sim) replay a given fault plan
bit-identically run over run, and that IS asserted.  On integer
weights every sum is exact, so there a recovered process solve is
asserted bitwise equal to the fault-free serial one.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import native, solve_apsp
from repro.exceptions import AlgorithmError, BackendError
from repro.faults import CORRUPT_PIPE, KILL, RAISE, STALL, FaultPlan, FaultSpec
from repro.graphs import CSRGraph
from repro.graphs.generators import attach_random_weights, erdos_renyi
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.parallel import fork_available
from tests.conftest import assert_same_apsp

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

N = 48
THREADS = 2
KILL_PLAN = FaultPlan.single(KILL, worker=1, after_claims=2)
#: one kill per worker: guaranteed to fire under any claim interleaving
KILL_ALL = FaultPlan.from_dict(
    {
        "faults": [
            dict(kind=KILL, worker=w, after_claims=1)
            for w in range(THREADS)
        ]
    }
)


@pytest.fixture(scope="module")
def graph():
    g = erdos_renyi(N, 0.15, seed=11, name="er-faults")
    return attach_random_weights(g, seed=11)


@pytest.fixture(scope="module")
def three_blocks():
    """150 vertices: 150 one-worker claims of one source each."""
    g = erdos_renyi(150, 0.05, seed=12, name="er-faults-blocks")
    return attach_random_weights(g, seed=12)


@pytest.fixture(scope="module")
def golden(graph):
    return solve_apsp(graph, algorithm="parapsp", num_threads=1).dist


@needs_fork
class TestProcessAcceptance:
    def test_sigkill_mid_sweep_recovers_exact(self, graph, golden):
        registry = MetricsRegistry()
        with use_registry(registry):
            result = solve_apsp(
                graph,
                algorithm="parapsp",
                num_threads=THREADS,
                backend="process",
                fault_plan=KILL_ALL,
                on_worker_death="retry",
            )
        assert_same_apsp(result.dist, golden)
        counters = registry.snapshot()["counters"]
        assert counters["faults.worker_deaths"] >= 1
        assert counters["faults.recovered_indices"] >= 1
        assert counters["faults.retry_rounds"] >= 1
        assert multiprocessing.active_children() == []

    def test_sigkill_on_integer_weights_recovers_bitwise(self, graph):
        """Integer weights make every sum exact, so the recovered matrix
        is the fault-free serial solve's bit for bit, and the workers
        ran the kernel every backend runs."""
        integral = CSRGraph(graph.indptr, graph.indices,
                            np.ceil(graph.weights), directed=graph.directed)
        clean = solve_apsp(integral, algorithm="parapsp", num_threads=1)
        registry = MetricsRegistry()
        with use_registry(registry):
            result = solve_apsp(
                integral,
                algorithm="parapsp",
                num_threads=THREADS,
                backend="process",
                fault_plan=KILL_ALL,
                on_worker_death="retry",
            )
        assert result.dist.tobytes() == clean.dist.tobytes()
        assert result.sweep_kernel == native.kernel_name()
        counters = registry.snapshot()["counters"]
        assert counters["faults.worker_deaths"] >= 1
        assert counters["faults.recovered_indices"] >= 1
        assert counters["sweep.count"] == N
        assert multiprocessing.active_children() == []

    def test_batched_process_recovers_exact(self, three_blocks):
        """One process worker falls back to the in-process one-worker
        sweep, recovered bitwise."""
        _one_worker_kill_drill(three_blocks, "process")

    def test_raise_policy_surfaces_backend_error(self, graph):
        with pytest.raises(BackendError, match="retry"):
            solve_apsp(
                graph,
                algorithm="parapsp",
                num_threads=THREADS,
                backend="process",
                fault_plan=KILL_ALL,
                on_worker_death="raise",
            )
        assert multiprocessing.active_children() == []


def _one_worker_kill_drill(graph, backend):
    """One worker claims one source at a time, so a fault plan counts
    sources.  A kill on the second claim loses every source after the
    first; the retry re-runs them in order, bitwise equal to the
    fault-free run."""
    clean = solve_apsp(graph, algorithm="parapsp", num_threads=1)
    registry = MetricsRegistry()
    with use_registry(registry):
        result = solve_apsp(
            graph,
            algorithm="parapsp",
            num_threads=1,
            backend=backend,
            fault_plan=FaultPlan.single(KILL, worker=0, after_claims=2),
            on_worker_death="retry",
        )
    assert result.dist.tobytes() == clean.dist.tobytes()
    assert result.ops == clean.ops
    counters = registry.snapshot()["counters"]
    assert counters["faults.worker_deaths"] == 1
    # the kill fires as source 1 of 150 is claimed: sources 1..149 are
    # lost, and each source still runs once
    assert counters["faults.recovered_indices"] == 149
    assert counters["sweep.count"] == 150


class TestOneWorkerAcceptance:
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_kill_recovers_bitwise(self, three_blocks, backend):
        _one_worker_kill_drill(three_blocks, backend)


class TestThreadsAcceptance:
    def test_kill_recovers_exact(self, graph, golden):
        result = solve_apsp(
            graph,
            algorithm="parapsp",
            num_threads=THREADS,
            backend="threads",
            fault_plan=KILL_ALL,
            on_worker_death="retry",
        )
        assert_same_apsp(result.dist, golden)


class TestSimAcceptance:
    def test_kill_keeps_distances_exact(self, graph, golden):
        registry = MetricsRegistry()
        with use_registry(registry):
            result = solve_apsp(
                graph,
                algorithm="parapsp",
                num_threads=4,
                backend="sim",
                fault_plan=KILL_PLAN,
                trace=True,
            )
        assert_same_apsp(result.dist, golden)
        counters = registry.snapshot()["counters"]
        assert counters["faults.sim.deaths"] == 1
        events = result.sim_dijkstra.events
        assert any(e.kind == "fault" for e in events)
        assert any(e.label == "recovery" for e in events)

    def test_faulted_sim_is_bit_deterministic(self, graph):
        runs = [
            solve_apsp(
                graph,
                algorithm="parapsp",
                num_threads=4,
                backend="sim",
                fault_plan=KILL_PLAN,
            )
            for _ in range(2)
        ]
        assert runs[0].phase_times.dijkstra == runs[1].phase_times.dijkstra
        assert np.array_equal(runs[0].dist, runs[1].dist)


class TestSerialDeterminism:
    def test_faulted_serial_is_bit_deterministic(self, graph):
        runs = [
            solve_apsp(
                graph,
                algorithm="parapsp",
                num_threads=4,
                backend="serial",
                fault_plan=KILL_PLAN,
                on_worker_death="retry",
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].dist, runs[1].dist)


class TestValidation:
    def test_chunk_zero_rejected(self, graph):
        with pytest.raises(AlgorithmError, match="chunk"):
            solve_apsp(graph, num_threads=2, chunk=0)

    def test_negative_chunk_rejected(self, graph):
        with pytest.raises(AlgorithmError, match="chunk"):
            solve_apsp(graph, num_threads=2, chunk=-3)

    @pytest.mark.parametrize("chunk", [0, -3])
    def test_simulator_rejects_bad_chunk(self, graph, chunk):
        from repro.core import simulate_sweep
        from repro.simx import default_machine

        with pytest.raises(AlgorithmError, match="chunk"):
            simulate_sweep(
                graph,
                np.arange(N),
                default_machine(2),
                num_threads=2,
                chunk=chunk,
            )

    def test_bad_policy_rejected(self, graph):
        with pytest.raises(AlgorithmError, match="on_worker_death"):
            solve_apsp(graph, num_threads=2, on_worker_death="shrug")


def _single_fault_plans(num_workers, n):
    kill_like = st.builds(
        FaultSpec,
        kind=st.sampled_from([KILL, CORRUPT_PIPE]),
        worker=st.integers(-1, num_workers - 1),
        after_claims=st.integers(1, 5),
    )
    stall = st.builds(
        FaultSpec,
        kind=st.just(STALL),
        worker=st.integers(-1, num_workers - 1),
        after_claims=st.integers(1, 5),
        seconds=st.just(0.0),
    )
    raise_ = st.builds(
        FaultSpec,
        kind=st.just(RAISE),
        worker=st.integers(-1, num_workers - 1),
        iteration=st.integers(0, n - 1),
    )
    spec = st.one_of(kill_like, stall, raise_)
    return st.builds(
        lambda s, seed: FaultPlan(faults=(s,), seed=seed),
        spec,
        st.integers(0, 2**16),
    )


class TestSingleFaultProperty:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        plan=_single_fault_plans(4, N),
        schedule=st.sampled_from(["dynamic", "block", "static-cyclic"]),
    )
    def test_any_single_fault_leaves_distances_exact(
        self, graph, golden, plan, schedule
    ):
        result = solve_apsp(
            graph,
            algorithm="parapsp",
            num_threads=4,
            backend="serial",
            schedule=schedule,
            fault_plan=plan,
            on_worker_death="retry",
        )
        assert_same_apsp(result.dist, golden)

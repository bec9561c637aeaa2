"""parallel_for / parallel_map across backends."""

import numpy as np
import pytest

from repro.exceptions import BackendError, ScheduleError
from repro.parallel import Backend, Schedule, parallel_for, parallel_map
from repro.parallel.backends.serial import issue_sequence


class TestParallelFor:
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize(
        "schedule", ["block", "static-cyclic", "dynamic"]
    )
    def test_every_index_exactly_once(self, backend, schedule):
        hits = np.zeros(37, dtype=np.int64)

        def body(i, _t):
            hits[i] += 1

        executed = parallel_for(
            37, body, num_threads=3, schedule=schedule, backend=backend
        )
        assert np.all(hits == 1)
        assert sorted(i for part in executed for i in part) == list(range(37))

    def test_thread_ids_in_range(self):
        seen = set()

        def body(_i, t):
            seen.add(t)

        parallel_for(20, body, num_threads=4, backend="threads")
        assert seen <= {0, 1, 2, 3}

    def test_zero_iterations(self):
        executed = parallel_for(0, lambda i, t: None, num_threads=2)
        assert all(not part for part in executed)

    def test_negative_iterations(self):
        with pytest.raises(BackendError):
            parallel_for(-1, lambda i, t: None)

    def test_worker_exception_propagates(self):
        def body(i, _t):
            if i == 7:
                raise ValueError("boom at 7")

        with pytest.raises(ValueError, match="boom at 7"):
            parallel_for(20, body, num_threads=3, backend="threads")

    def test_process_backend_rejected(self):
        with pytest.raises(BackendError, match="process"):
            parallel_for(4, lambda i, t: None, num_threads=2, backend="process")

    def test_sim_backend_rejected(self):
        with pytest.raises(BackendError, match="sim"):
            parallel_for(4, lambda i, t: None, num_threads=2, backend="sim")

    def test_serial_dynamic_issue_order_is_index_order(self):
        order = []
        parallel_for(
            10,
            lambda i, t: order.append(i),
            num_threads=3,
            schedule="dynamic",
            backend="serial",
        )
        assert order == list(range(10))

    def test_single_thread_any_backend_is_serial(self):
        order = []
        parallel_for(
            6,
            lambda i, t: order.append(i),
            num_threads=1,
            schedule="dynamic",
            backend="threads",
        )
        assert order == list(range(6))

    @pytest.mark.parametrize("schedule", list(Schedule))
    @pytest.mark.parametrize("num_threads", [1, 2, 3, 4])
    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("n", [0, 1, 7, 10])
    def test_serial_issue_sequence(self, schedule, num_threads, chunk, n):
        """``issue_sequence`` is the order the serial executor issues
        iterations in: static lanes interleave one iteration per turn,
        the dynamic schedule and one worker run in index order."""
        order = []
        parallel_for(
            n, lambda i, t: order.append(i), num_threads=num_threads,
            schedule=schedule, chunk=chunk, backend="serial",
        )
        sequence = issue_sequence(schedule, n, num_threads, chunk)
        if sequence is None:
            assert order == list(range(n))
        else:
            assert sequence.tolist() == order


class TestParallelMap:
    @pytest.mark.parametrize("backend", ["serial", "threads", "process"])
    @pytest.mark.parametrize("schedule", ["block", "static-cyclic", "dynamic"])
    def test_results_ordered(self, backend, schedule):
        got = parallel_map(
            15,
            lambda i: i * i,
            num_threads=3,
            schedule=schedule,
            backend=backend,
        )
        assert got == [i * i for i in range(15)]

    def test_closure_over_numpy_array_process(self):
        data = np.arange(100, dtype=np.float64)
        got = parallel_map(
            5,
            lambda i: float(data[i * 10 : (i + 1) * 10].sum()),
            num_threads=2,
            backend="process",
        )
        assert got == [
            float(data[i * 10 : (i + 1) * 10].sum()) for i in range(5)
        ]

    def test_process_worker_failure_reported(self):
        with pytest.raises(BackendError, match="worker process"):
            parallel_map(
                4, lambda i: 1 // (i - 2), num_threads=2, backend="process"
            )

    def test_empty(self):
        assert parallel_map(0, lambda i: i, num_threads=2) == []

    def test_backend_coercion_error(self):
        with pytest.raises(BackendError, match="unknown backend"):
            parallel_map(3, lambda i: i, backend="gpu")


class TestLoopCheck:
    """Every executor draws its claims from one checked ClaimSource."""

    @staticmethod
    def _run(backend, num_threads=2, chunk=1):
        if backend == "sim":
            from repro.simx import default_machine, simulate_parallel_for

            return simulate_parallel_for(
                5, np.ones(5), default_machine(2), num_threads=num_threads,
                chunk=chunk,
            )
        return parallel_map(
            4,
            lambda i: i,
            num_threads=num_threads,
            schedule="dynamic",
            chunk=chunk,
            backend=backend,
        )

    @pytest.mark.parametrize("backend", ["serial", "threads", "process", "sim"])
    @pytest.mark.parametrize("num_threads", [0, -2])
    def test_no_threads_rejected(self, backend, num_threads):
        with pytest.raises(ScheduleError, match="num_threads"):
            self._run(backend, num_threads=num_threads)

    @pytest.mark.parametrize("backend", ["serial", "threads", "process", "sim"])
    def test_zero_chunk_rejected(self, backend):
        with pytest.raises(ScheduleError, match="chunk"):
            self._run(backend, chunk=0)

    @pytest.mark.parametrize("backend", ["serial", "threads", "process"])
    def test_sweep_with_no_threads_rejected(self, backend):
        from repro.core.sweep import run_sweep
        from repro.graphs.rmat import rmat

        with pytest.raises(ScheduleError, match="num_threads"):
            run_sweep(
                rmat(5, 4, seed=1), np.arange(32), backend=backend, num_threads=0
            )

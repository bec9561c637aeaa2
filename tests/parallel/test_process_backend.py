"""Shared-memory arrays and the fork-based map."""

import numpy as np
import pytest

from repro.exceptions import BackendError
from repro.parallel import SharedArray, fork_available
from repro.parallel.backends.process import run_parallel_map
from repro.types import Schedule

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestSharedArray:
    def test_shape_dtype(self):
        with SharedArray.allocate((3, 4), np.float64) as arr:
            assert arr.array.shape == (3, 4)
            assert arr.array.dtype == np.float64

    def test_uint8_flags(self):
        with SharedArray.allocate((10,), np.uint8) as arr:
            arr.array[:] = 0
            arr.array[3] = 1
            assert arr.array.sum() == 1

    def test_negative_dims_rejected(self):
        with pytest.raises(BackendError):
            SharedArray((-1, 2))

    def test_double_close_safe(self):
        arr = SharedArray((2, 2))
        arr.close()
        arr.close()  # idempotent

    @needs_fork
    def test_writes_visible_across_fork(self):
        with SharedArray.allocate((8,), np.float64) as shared:
            shared.array[:] = 0.0

            def work(i):
                shared.array[i] = i * 2.0
                return i

            run_parallel_map(8, work, num_threads=2)
            assert shared.array.tolist() == [i * 2.0 for i in range(8)]

    def test_matrix_is_2d_float(self):
        with SharedArray.allocate((4, 5)) as m:
            assert m.array.shape == (4, 5)
            assert m.array.dtype == np.float64
            m.array[:] = 1.5
            assert m.array.sum() == 30.0


class TestRunParallelMap:
    @needs_fork
    @pytest.mark.parametrize(
        "schedule", [Schedule.BLOCK, Schedule.STATIC_CYCLIC, Schedule.DYNAMIC]
    )
    def test_all_schedules(self, schedule):
        got = run_parallel_map(
            12, lambda i: i + 100, num_threads=3, schedule=schedule
        )
        assert got == [i + 100 for i in range(12)]

    def test_single_thread_fallback(self):
        got = run_parallel_map(5, lambda i: -i, num_threads=1)
        assert got == [0, -1, -2, -3, -4]

    def test_empty(self):
        assert run_parallel_map(0, lambda i: i, num_threads=2) == []

"""Virtual fault injection in the serial backend.

Serial runs model ``num_threads`` virtual workers, so fault plans stay
meaningful (and debuggable breakpoint-style) without real concurrency.
"""

import numpy as np
import pytest

from repro.exceptions import BackendError
from repro.faults import KILL, RAISE, STALL, FaultPlan
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.parallel import parallel_for, parallel_map
from repro.types import Schedule


def _run(n, num_threads, schedule, plan, policy="retry"):
    hits = np.zeros(n, dtype=np.int64)

    def body(i, _thread):
        hits[i] += 1

    parallel_for(
        n,
        body,
        num_threads=num_threads,
        schedule=schedule,
        backend="serial",
        fault_plan=plan,
        on_worker_death=policy,
    )
    return hits


class TestSerialFaults:
    @pytest.mark.parametrize(
        "schedule",
        [Schedule.BLOCK, Schedule.STATIC_CYCLIC, Schedule.DYNAMIC],
    )
    def test_kill_recovers_every_index_once(self, schedule):
        plan = FaultPlan.single(KILL, worker=1, after_claims=1)
        hits = _run(20, 4, schedule, plan)
        assert hits.tolist() == [1] * 20

    def test_kill_raise_policy(self):
        plan = FaultPlan.single(KILL, worker=1, after_claims=1)
        with pytest.raises(BackendError, match="retry"):
            _run(20, 4, Schedule.DYNAMIC, plan, policy="raise")

    def test_all_virtual_workers_dead_still_recovers_or_raises(self):
        # killing every virtual worker leaves the remaining iterations
        # lost; retry policy must still complete them inline
        plan = FaultPlan(
            faults=tuple(
                FaultPlan.single(KILL, worker=w, after_claims=1).faults[0]
                for w in range(4)
            )
        )
        hits = _run(20, 4, Schedule.DYNAMIC, plan)
        assert hits.tolist() == [1] * 20

    def test_injected_raise_recovers(self):
        plan = FaultPlan.single(RAISE, worker=0, iteration=2)
        hits = _run(12, 3, Schedule.DYNAMIC, plan)
        assert hits.tolist() == [1] * 12

    def test_stall_is_consumed(self):
        plan = FaultPlan.single(STALL, worker=0, seconds=0.0)
        hits = _run(8, 2, Schedule.DYNAMIC, plan)
        assert hits.tolist() == [1] * 8

    def test_counters_emitted(self):
        registry = MetricsRegistry()
        plan = FaultPlan.single(KILL, worker=1, after_claims=1)
        with use_registry(registry):
            _run(20, 4, Schedule.DYNAMIC, plan)
        counters = registry.snapshot()["counters"]
        assert counters["faults.worker_deaths"] == 1
        assert counters["faults.recovered_indices"] >= 1

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize(
        "schedule",
        [Schedule.BLOCK, Schedule.STATIC_CYCLIC, Schedule.DYNAMIC],
    )
    def test_empty_plan_is_plan_free(self, backend, schedule):
        def run(plan):
            return parallel_for(
                23,
                lambda i, t: None,
                num_threads=3,
                schedule=schedule,
                chunk=2,
                backend=backend,
                fault_plan=plan,
            )

        clean, empty = run(None), run(FaultPlan(faults=()))
        if backend == "threads" and schedule is Schedule.DYNAMIC:
            # which thread wins a dynamic claim is up to the OS
            clean = [sorted(i for part in clean for i in part)]
            empty = [sorted(i for part in empty for i in part)]
        assert empty == clean
        assert sorted(i for part in clean for i in part) == list(range(23))

    def test_serial_map_honours_the_plan(self):
        plan = FaultPlan.single(KILL, worker=0, after_claims=1)
        kwargs = dict(num_threads=2, backend="serial", fault_plan=plan)
        with pytest.raises(BackendError, match="retry"):
            parallel_map(6, lambda i: i * i, on_worker_death="raise", **kwargs)
        got = parallel_map(6, lambda i: i * i, on_worker_death="retry", **kwargs)
        assert got == [i * i for i in range(6)]

    def test_one_worker_process_map_honours_the_plan(self):
        plan = FaultPlan.single(KILL, worker=0, after_claims=1)
        with pytest.raises(BackendError, match="retry"):
            parallel_map(
                6,
                lambda i: i * i,
                num_threads=1,
                backend="process",
                fault_plan=plan,
                on_worker_death="raise",
            )

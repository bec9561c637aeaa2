"""Virtual-time fault replay in the simulator.

A killed simulated thread leaves the rotation; its claimed iterations
re-enter the queue and run on survivors as ``recovery``-labelled
events.  All of it is deterministic — same plan, same virtual timeline.
"""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.faults import KILL, STALL, FaultPlan, FaultSpec
from repro.simx import MachineSpec, simulate_parallel_for

BARE = MachineSpec(
    name="bare",
    num_cores=16,
    fork_join_overhead=0.0,
    dispatch_overhead=0.0,
    memory_bandwidth_factor=0.0,
    cache_boost_factor=0.0,
)

KILL_PLAN = FaultPlan.single(KILL, worker=1, after_claims=2)


class TestSimKill:
    def test_all_iterations_still_execute(self):
        out = simulate_parallel_for(
            30,
            np.ones(30),
            BARE,
            num_threads=4,
            schedule="dynamic",
            fault_plan=KILL_PLAN,
        )
        assert sorted(out.issue_order.tolist()) == list(range(30))

    def test_dead_thread_runs_nothing_after_death(self):
        out = simulate_parallel_for(
            30,
            np.ones(30),
            BARE,
            num_threads=4,
            schedule="dynamic",
            fault_plan=FaultPlan.single(KILL, worker=1, after_claims=1),
        )
        # worker 1 claimed once (one chunk) before dying
        assert (out.thread_of == 1).sum() <= 1

    def test_makespan_no_better_than_fault_free(self):
        clean = simulate_parallel_for(
            30, np.ones(30), BARE, num_threads=4, schedule="dynamic"
        )
        faulted = simulate_parallel_for(
            30,
            np.ones(30),
            BARE,
            num_threads=4,
            schedule="dynamic",
            fault_plan=KILL_PLAN,
        )
        assert faulted.result.makespan >= clean.result.makespan

    def test_deterministic_replay(self):
        runs = [
            simulate_parallel_for(
                25,
                np.arange(25, dtype=float) + 1.0,
                BARE,
                num_threads=4,
                schedule="dynamic",
                fault_plan=KILL_PLAN,
            )
            for _ in range(2)
        ]
        assert runs[0].result.makespan == runs[1].result.makespan
        assert runs[0].thread_of.tolist() == runs[1].thread_of.tolist()

    def test_all_threads_killed_raises(self):
        plan = FaultPlan(
            faults=tuple(
                FaultSpec(kind=KILL, worker=w, after_claims=1)
                for w in range(4)
            )
        )
        with pytest.raises(SimulationError, match="killed every"):
            simulate_parallel_for(
                40,
                np.ones(40),
                BARE,
                num_threads=4,
                schedule="dynamic",
                fault_plan=plan,
            )

    @pytest.mark.parametrize("schedule", ["block", "static-cyclic"])
    def test_static_schedules_recover_too(self, schedule):
        out = simulate_parallel_for(
            24,
            np.ones(24),
            BARE,
            num_threads=4,
            schedule=schedule,
            fault_plan=FaultPlan.single(KILL, worker=2, after_claims=1),
        )
        assert sorted(out.issue_order.tolist()) == list(range(24))


class TestSimTraceEvents:
    def _traced(self, plan):
        return simulate_parallel_for(
            20,
            np.ones(20),
            BARE,
            num_threads=4,
            schedule="dynamic",
            fault_plan=plan,
            trace=True,
        )

    def test_death_emits_fault_event(self):
        out = self._traced(KILL_PLAN)
        faults = [e for e in out.result.events if e.kind == "fault"]
        assert any("death" in e.label for e in faults)

    def test_recovery_iterations_are_labelled(self):
        out = self._traced(FaultPlan.single(KILL, worker=1, after_claims=1))
        recovered = [
            e
            for e in out.result.events
            if e.kind == "iter" and e.label == "recovery"
        ]
        assert recovered, "lost iterations must resurface as recovery events"

    def test_stall_emits_fault_event(self):
        out = self._traced(
            FaultPlan.single(STALL, worker=0, seconds=3.0)
        )
        stalls = [
            e
            for e in out.result.events
            if e.kind == "fault" and e.label == "stall"
        ]
        assert len(stalls) == 1
        assert stalls[0].duration == pytest.approx(3.0)

    def test_fault_free_trace_has_no_fault_events(self):
        out = simulate_parallel_for(
            20,
            np.ones(20),
            BARE,
            num_threads=4,
            schedule="dynamic",
            trace=True,
        )
        assert not [e for e in out.result.events if e.kind == "fault"]


class TestSimCounters:
    def test_fault_counters(self):
        from repro.obs.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            simulate_parallel_for(
                30,
                np.ones(30),
                BARE,
                num_threads=4,
                schedule="dynamic",
                fault_plan=KILL_PLAN,
            )
        counters = registry.snapshot()["counters"]
        assert counters["faults.sim.deaths"] == 1
        assert counters["faults.sim.requeued_iterations"] >= 1


def _counted(**kwargs):
    from repro.obs.metrics import MetricsRegistry, use_registry

    registry = MetricsRegistry()
    with use_registry(registry):
        out = simulate_parallel_for(**kwargs)
    return out, registry.snapshot()["counters"]


class TestEmptyPlanIsPlanFree:
    @pytest.mark.parametrize("schedule", ["block", "static-cyclic", "dynamic"])
    def test_every_outcome_field_and_clock_counter(self, schedule):
        from repro.simx import default_machine

        costs = np.random.default_rng(3).uniform(1.0, 9.0, 37)
        kwargs = dict(
            n=37,
            costs=costs,
            machine=default_machine(4),
            num_threads=4,
            schedule=schedule,
            chunk=2,
            trace=True,
        )
        clean, clean_counters = _counted(**kwargs)
        empty, empty_counters = _counted(fault_plan=FaultPlan(faults=()), **kwargs)
        for field in ("start_times", "end_times", "thread_of", "issue_order"):
            assert getattr(empty, field).tolist() == getattr(clean, field).tolist()
        assert (empty.schedule, empty.chunk) == (clean.schedule, clean.chunk)
        for field in ("num_threads", "makespan", "events", "meta"):
            assert getattr(empty.result, field) == getattr(clean.result, field)
        assert empty.result.busy.tolist() == clean.result.busy.tolist()
        assert empty.result.overhead.tolist() == clean.result.overhead.tolist()
        assert empty_counters == clean_counters
        assert clean_counters["sim.clock.pops"] > 0

    def test_static_cyclic_sweep_on_rmat(self):
        from repro.core import simulate_sweep
        from repro.graphs.rmat import rmat
        from repro.simx import default_machine

        g = rmat(7, 8, seed=5)
        order = np.argsort(-np.diff(g.indptr), kind="stable")
        runs = [
            simulate_sweep(
                g,
                order,
                default_machine(8),
                num_threads=8,
                schedule="static-cyclic",
                fault_plan=plan,
            )
            for plan in (None, FaultPlan(faults=()))
        ]
        assert runs[1].makespan == runs[0].makespan
        assert runs[1].dist.tobytes() == runs[0].dist.tobytes()


class TestStaticClaims:
    def test_kill_after_one_claim_requeues_the_whole_assignment(self):
        out = simulate_parallel_for(
            12,
            np.ones(12),
            BARE,
            num_threads=3,
            schedule="block",
            fault_plan=FaultPlan.single(KILL, worker=1, after_claims=1),
            trace=True,
        )
        assert 1 not in out.thread_of.tolist()
        recovered = sorted(
            e.item for e in out.result.events if e.label == "recovery"
        )
        assert recovered == [4, 5, 6, 7]
        # survivors dispatch their own blocks one per step, then wake
        # from their park to run the requeued block back to back
        assert out.result.makespan == 8.0

    def test_static_dispatch_stays_in_virtual_time_order(self):
        costs = np.array([5.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        out = simulate_parallel_for(
            6,
            costs,
            BARE,
            num_threads=2,
            schedule="static-cyclic",
            fault_plan=FaultPlan.single(STALL, worker=1, seconds=0.5),
        )
        starts = out.start_times[out.issue_order]
        assert np.all(np.diff(starts) >= 0)

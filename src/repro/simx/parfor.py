"""Simulated OpenMP ``parallel for`` in virtual time.

Given per-iteration costs — either a precomputed array, or a callback
evaluated at dispatch time for cost models with history dependence (the
modified Dijkstra's flag reuse) — this module plays out the loop under a
scheduling policy on a :class:`~repro.simx.machine.MachineSpec` and
reports the makespan, per-thread busy/overhead time and per-iteration
start/end times.

Scheduling semantics match the real backends exactly:

* ``BLOCK`` / ``STATIC_CYCLIC`` — fixed assignments from
  :func:`repro.parallel.schedule.static_assignment`; each thread walks
  its list in order, one iteration per scheduler step.
* ``DYNAMIC`` — whenever a thread becomes free it claims the globally
  next unissued iteration (chunk 1 preserves issue order, the property
  ParAlg2 needs), paying ``dispatch_overhead`` per claim.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Sequence, Union

import numpy as np

from ..exceptions import FaultInjected, SimulationError
from ..faults.inject import ThreadDeath, WorkerFaultInjector
from ..faults.plan import RAISE
from ..obs import metrics as _obs
from ..parallel.schedule import ClaimSource, check_loop
from ..types import Schedule
from .engine import ThreadClockQueue
from .machine import MachineSpec
from .trace import SimResult, TraceEvent

__all__ = ["ParForOutcome", "simulate_parallel_for"]

#: cost callback signature: (iteration, dispatch_time, thread) -> cost
CostFn = Callable[[int, float, int], float]

INF = float("inf")


@dataclass
class ParForOutcome:
    """Everything a caller might need about a simulated loop."""

    result: SimResult
    #: virtual time each iteration was dispatched at
    start_times: np.ndarray
    #: virtual time each iteration completed at
    end_times: np.ndarray
    #: which simulated thread ran each iteration
    thread_of: np.ndarray
    #: iterations in dispatch order (global issue order)
    issue_order: np.ndarray
    #: the schedule policy that produced this timeline (e.g.
    #: "dynamic-cyclic"); attribution reports it instead of guessing
    schedule: str = ""
    #: chunk size the policy ran with
    chunk: int = 1


def _as_cost_fn(
    costs: Union[Sequence[float], np.ndarray, CostFn],
) -> CostFn:
    if callable(costs):
        return costs
    arr = np.asarray(costs, dtype=np.float64)
    if arr.ndim != 1:
        raise SimulationError("cost array must be one-dimensional")
    if arr.size and arr.min() < 0:
        raise SimulationError("iteration costs must be non-negative")

    def fn(i: int, _time: float, _thread: int) -> float:
        return float(arr[i])

    return fn


def simulate_parallel_for(
    n: int,
    costs: Union[Sequence[float], np.ndarray, CostFn],
    machine: MachineSpec,
    *,
    num_threads: int,
    schedule: "Schedule | str" = Schedule.DYNAMIC,
    chunk: int = 1,
    cost_multiplier: float = 1.0,
    trace: bool = False,
    fault_plan=None,
) -> ParForOutcome:
    """Play a parallel loop of ``n`` iterations forward in virtual time.

    ``cost_multiplier`` scales every iteration cost (pass
    ``machine.memory_cost_multiplier(T)`` for memory-bound phases).

    The globally earliest live thread acts next.  Dynamic and recovery
    claims run back to back within one action, paying
    ``dispatch_overhead`` per claim; a static assignment is one claim
    dispatched one iteration per action, in virtual-time order.  A
    drained thread parks at ``+inf``.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) replays worker
    misbehaviour through each thread's
    :class:`~repro.faults.WorkerFaultInjector`: a stall is virtual
    overhead, and a death stops the thread at the current virtual
    instant.  Its claimed-but-unexecuted iterations re-enter the work
    queue, waking parked threads, and are re-issued to survivors as
    ``recovery``-labelled iterations.  Each iteration's cost callback
    still runs exactly once, so history-dependent cost models stay
    valid.  An empty plan is the plan-free run.
    """
    schedule = Schedule.coerce(schedule)
    check_loop(n, num_threads, chunk)
    if cost_multiplier <= 0:
        raise SimulationError("cost multiplier must be positive")
    T = machine.clamp_threads(num_threads)
    cost_fn = _as_cost_fn(costs)
    source = ClaimSource(schedule, n, T, chunk)
    plan = fault_plan.bind(T) if fault_plan else None
    stalls_due: List[float] = []
    injectors = [
        WorkerFaultInjector(plan, t, sleep=stalls_due.append) for t in range(T)
    ]

    start_times = np.zeros(n, dtype=np.float64)
    end_times = np.zeros(n, dtype=np.float64)
    thread_of = np.zeros(n, dtype=np.int64)
    issue_order: List[int] = []
    busy = np.zeros(T, dtype=np.float64)
    region_cost = machine.region_overhead(T)
    overhead = np.full(T, region_cost, dtype=np.float64)
    events: List[TraceEvent] = []
    if trace and region_cost:
        events.extend(
            TraceEvent(-1, t, 0.0, region_cost, kind="overhead",
                       label="fork-join")
            for t in range(T)
        )
    queue = ThreadClockQueue(T, start_time=region_cost)

    #: static claim items not yet dispatched, per thread
    held: List[deque] = [deque() for _ in range(T)]
    dead = [False] * T
    parked: List[int] = []
    requeued: "deque[List[int]]" = deque()
    deaths = stalls = requeued_iters = executed = 0

    def kill(t: int, time: float, kind: str, lost: List[int]) -> None:
        nonlocal deaths, requeued_iters
        deaths += 1
        dead[t] = True
        held[t].clear()
        if trace:
            events.append(
                TraceEvent(-1, t, time, time, kind="fault",
                           label=f"death({kind})")
            )
        if lost:
            requeued.append(lost)
            requeued_iters += len(lost)
            # the lost work exists again as of the death time: wake
            # every thread that parked because nothing was claimable
            while parked:
                queue.wake(parked.pop(), time)

    while executed < n:
        if deaths == T:
            raise SimulationError(
                "fault plan killed every simulated thread with "
                f"{n - executed} iteration(s) still unexecuted"
            )
        time, thread = queue.pop_earliest()
        if dead[thread]:
            continue  # removed from the rotation
        mine = held[thread]
        t_clock = time
        recovery = batch = False
        if not mine:
            recovery = bool(requeued)
            items = requeued.popleft() if recovery else source.claim(thread)
            if not items:
                queue.advance(thread, INF)
                parked.append(thread)
                continue
            batch = recovery or source.dynamic
            if batch and machine.dispatch_overhead:
                overhead[thread] += machine.dispatch_overhead
                if trace:
                    events.append(
                        TraceEvent(-1, thread, t_clock,
                                   t_clock + machine.dispatch_overhead,
                                   kind="overhead", label="dispatch")
                    )
                t_clock += machine.dispatch_overhead
            death = None
            try:
                injectors[thread].on_claim()
            except ThreadDeath as exc:
                death = exc
            if stalls_due:
                stall = sum(stalls_due)
                stalls += len(stalls_due)
                stalls_due.clear()
                overhead[thread] += stall
                if trace:
                    events.append(
                        TraceEvent(-1, thread, t_clock, t_clock + stall,
                                   kind="fault", label="stall")
                    )
                t_clock += stall
            if death is not None:
                kill(thread, t_clock, death.spec.kind, list(items))
                queue.advance(thread, t_clock)  # freeze clock at death time
                continue
            mine.extend(items)
        for _ in range(len(mine) if batch else 1):
            i = mine[0]
            try:
                injectors[thread].on_iteration(i)
            except FaultInjected:
                kill(thread, t_clock, RAISE, list(mine))
                break
            duration = cost_fn(i, t_clock, thread) * cost_multiplier
            if not duration >= 0:  # also rejects NaN
                raise SimulationError(
                    f"invalid cost for iteration {i}: {duration!r}"
                )
            start_times[i] = t_clock
            end_times[i] = t_clock + duration
            thread_of[i] = thread
            issue_order.append(i)
            busy[thread] += duration
            if trace:
                events.append(
                    TraceEvent(i, thread, t_clock, t_clock + duration,
                               label="recovery" if recovery else "")
                )
            t_clock += duration
            mine.popleft()
            executed += 1
        queue.advance(thread, t_clock)

    makespan = region_cost
    if n:
        finite = [c for c in queue.clocks() if c != INF]
        makespan = max(max(finite), float(end_times.max()))

    meta = {"schedule": schedule.value, "chunk": str(chunk)}
    if plan is not None:
        meta.update(fault_deaths=str(deaths), fault_stalls=str(stalls))
    result = SimResult(
        num_threads=T,
        makespan=float(makespan),
        busy=busy,
        overhead=overhead,
        events=events,
        meta=meta,
    )
    reg = _obs._current
    if reg is not None:
        reg.add("sim.parfor.regions", 1)
        reg.add("sim.parfor.iterations", n)
        reg.add("sim.clock.pops", queue.pops)
        reg.add("sim.clock.advances", queue.advances)
        reg.add("sim.clock.stale_skips", queue.stale_skips)
        if plan is not None:
            reg.add("faults.sim.deaths", deaths)
            reg.add("faults.sim.stalls", stalls)
            reg.add("faults.sim.requeued_iterations", requeued_iters)
    return ParForOutcome(
        result=result,
        start_times=start_times,
        end_times=end_times,
        thread_of=thread_of,
        issue_order=np.asarray(issue_order, dtype=np.int64),
        schedule=schedule.value,
        chunk=chunk,
    )

"""Simulated (virtual-time) execution of the APSP sweep phase.

This is where the paper's multi-thread Figures 7–10 come from on a
single-core host: the *real* modified-Dijkstra sweeps run one by one in
the order a T-thread machine would dispatch them, and each sweep's
measured operation counts are priced by the cost model into its virtual
duration.

Flag-availability interleaving — the operational version of the paper's
dynamic-programming argument — is what distinguishes this from a plain
"divide the serial time by T" model: a sweep dispatched at virtual time
τ may only merge rows of sweeps that *completed* by τ, exactly like a
thread on the real machine (approximation: flags that arrive mid-sweep
are not used; they only add reuse, so the simulated work is a slight
over-estimate of the real machine's).
The gate is the native kernel's ``completed_at`` array
(:mod:`repro.core.native`), or a ``flag_gate`` on the Python fallback.

The memory-hierarchy effects (aggregate LLC growth across sockets vs.
bandwidth contention) enter through
:meth:`~repro.simx.MachineSpec.memory_cost_multiplier`, which is the
mechanism behind the hyper-linear speedups of Figures 9–10.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..simx.machine import MachineSpec
from ..simx.parfor import ParForOutcome, simulate_parallel_for
from ..types import OpCounts, Schedule
from . import native
from .costs import DEFAULT_COST_MODEL, DijkstraCostModel
from .modified_dijkstra import modified_dijkstra_sssp
from .state import new_state
from .sweep import CountedSweep, issue_order

__all__ = ["SimulatedSweep", "simulate_sweep"]


class SimulatedSweep(CountedSweep):
    """A simulated sweep phase: the counted sweep and its schedule."""

    __slots__ = ("outcome",)

    def __init__(
        self,
        dist: np.ndarray,
        counts: np.ndarray,
        outcome: ParForOutcome,
        kernel: str,
    ) -> None:
        super().__init__(dist, counts, kernel)
        self.outcome = outcome

    @property
    def makespan(self) -> float:
        return self.outcome.result.makespan


def simulate_sweep(
    graph: CSRGraph,
    order: np.ndarray,
    machine: MachineSpec,
    *,
    num_threads: int,
    schedule: "Schedule | str" = Schedule.DYNAMIC,
    chunk: int = 1,
    queue: str = "fifo",
    use_flags: bool = True,
    cost_model: DijkstraCostModel = DEFAULT_COST_MODEL,
    trace: bool = False,
    fault_plan=None,
) -> SimulatedSweep:
    """Play the sweep phase on the simulated machine.

    The produced distance matrix is the exact APSP solution (reuse
    affects only *work*, never results); the virtual makespan reflects
    the T-thread schedule, flag interleaving and memory effects.
    ``trace=True`` records per-sweep timeline events for the unified
    tracing layer (:mod:`repro.trace`).

    ``fault_plan`` replays worker faults in virtual time (see
    :mod:`repro.faults`): each sweep still runs exactly once — a killed
    virtual thread's unissued sources are re-dispatched to survivors —
    so the distance matrix stays exact under any plan the simulator can
    recover from.
    """
    schedule = Schedule.coerce(schedule)
    n = graph.num_vertices
    order = issue_order(order, n)
    state = new_state(n)
    counts = np.zeros((n, 6), dtype=np.int64)
    #: completion virtual time per vertex id; +inf = not finished yet
    completed_at = np.full(n, np.inf)
    multiplier = machine.memory_cost_multiplier(num_threads)
    kernel = native.bind(
        graph, state, queue=queue, use_flags=use_flags,
        completed_at=completed_at,
    )

    def sweep(s: int, dispatch_time: float) -> OpCounts:
        if kernel is not None:
            kernel(s, 0, dispatch_time)
            return kernel.op_counts(s)

        def gate(t: int) -> bool:
            return completed_at[t] <= dispatch_time

        ops = modified_dijkstra_sssp(
            graph,
            s,
            state,
            queue=queue,
            use_flags=use_flags,
            flag_gate=gate,
        )
        counts[s] = astuple(ops)
        return ops

    def cost_fn(i: int, dispatch_time: float, _thread: int) -> float:
        s = int(order[i])
        duration = cost_model.sweep_cost(sweep(s, dispatch_time))
        # the parfor applies cost_multiplier after this returns; record
        # the completion time in final (multiplied) units
        completed_at[s] = dispatch_time + duration * multiplier
        return duration

    try:
        outcome = simulate_parallel_for(
            n,
            cost_fn,
            machine,
            num_threads=num_threads,
            schedule=schedule,
            chunk=chunk,
            cost_multiplier=multiplier,
            trace=trace,
            fault_plan=fault_plan,
        )
    finally:
        if kernel is not None:
            kernel.publish()
            kernel.close()
    if kernel is None:
        return SimulatedSweep(state.dist, counts, outcome, native.kernel_name())
    return SimulatedSweep(state.dist, kernel.counts[:, :6], outcome, "native")

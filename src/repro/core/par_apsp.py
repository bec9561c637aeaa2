"""**ParAPSP** — Algorithm 8: the paper's proposed parallel APSP solver.

MultiLists parallel ordering (lock-free, exact descending degree) plus
the dynamic-cyclic scheduled modified-Dijkstra sweep.  Removing the
O(n²) sequential ordering is what turns ParAlg2's Amdahl-limited
speedup into the near/hyper-linear curves of Figures 9–10.
"""

from __future__ import annotations

from typing import Optional

from ..graphs.csr import CSRGraph
from ..obs import metrics as _obs
from ..simx.machine import MachineSpec
from ..types import Backend, Schedule
from .state import APSPResult
from .runner import solve_apsp

__all__ = ["par_apsp"]


def par_apsp(
    graph: CSRGraph,
    *,
    num_threads: int = 1,
    backend: "Backend | str" = Backend.THREADS,
    schedule: "Schedule | str" = Schedule.DYNAMIC,
    machine: Optional[MachineSpec] = None,
    queue: str = "fifo",
) -> APSPResult:
    """Run ParAPSP (the paper's headline algorithm)."""
    with _obs.span("par_apsp"):
        return solve_apsp(
            graph,
            algorithm="parapsp",
            num_threads=num_threads,
            backend=backend,
            schedule=schedule,
            machine=machine,
            queue=queue,
        )

"""**ParAlg1** — the parallel basic APSP algorithm (§3.1).

The basic algorithm's SSSP loop parallelised with an OpenMP-style
``parallel for``: no ordering phase at all, every source is an
independent task.  The paper reports near-linear speedup — there is no
sequential fraction — but absolute runtimes 2–4× behind ParAlg2/ParAPSP
because the reuse pattern is degree-blind.
"""

from __future__ import annotations

from typing import Optional

from ..graphs.csr import CSRGraph
from ..simx.machine import MachineSpec
from ..types import Backend, Schedule
from .state import APSPResult
from .runner import solve_apsp

__all__ = ["par_alg1"]


def par_alg1(
    graph: CSRGraph,
    *,
    num_threads: int = 1,
    backend: "Backend | str" = Backend.THREADS,
    schedule: "Schedule | str" = Schedule.DYNAMIC,
    machine: Optional[MachineSpec] = None,
    queue: str = "fifo",
) -> APSPResult:
    """Run ParAlg1 with ``num_threads`` workers."""
    return solve_apsp(
        graph,
        algorithm="paralg1",
        num_threads=num_threads,
        backend=backend,
        schedule=schedule,
        machine=machine,
        queue=queue,
    )

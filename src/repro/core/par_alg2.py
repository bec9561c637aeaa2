"""**ParAlg2** — Algorithm 4: the parallel optimized APSP algorithm.

Sequential selection-sort ordering (kept verbatim from Peng et al., with
its O(n²) cost — the parallel overhead Table 1 quantifies) followed by
the dynamic-cyclic scheduled sweep.  ``schedule`` is exposed because
Figure 1 studies exactly that knob: the dynamic-cyclic scheme preserves
the descending-degree issue order; block partitioning destroys it.
"""

from __future__ import annotations

from typing import Optional

from ..graphs.csr import CSRGraph
from ..simx.machine import MachineSpec
from ..types import Backend, Schedule
from .state import APSPResult
from .runner import solve_apsp

__all__ = ["par_alg2"]


def par_alg2(
    graph: CSRGraph,
    *,
    num_threads: int = 1,
    backend: "Backend | str" = Backend.THREADS,
    schedule: "Schedule | str" = Schedule.DYNAMIC,
    ordering: Optional[str] = None,
    machine: Optional[MachineSpec] = None,
    ratio: float = 1.0,
    queue: str = "fifo",
) -> APSPResult:
    """Run ParAlg2 with ``num_threads`` workers.

    ``ordering`` may swap in ``"parbuckets"`` / ``"parmax"`` — the
    Figure 5 experiment (effect of approximate vs exact orders on the
    Dijkstra-phase time).
    """
    return solve_apsp(
        graph,
        algorithm="paralg2",
        num_threads=num_threads,
        backend=backend,
        schedule=schedule,
        ordering=ordering,
        machine=machine,
        ratio=ratio,
        queue=queue,
    )

"""Shared APSP state: the distance matrix, the flag vector, results.

Algorithm 2 line 2–7: ``D[u, v] = ∞`` for every pair, ``flag[i] = 0``
for every vertex.  The diagonal is set to zero lazily by each SSSP run
(Algorithm 1 line 2), but initialising it here is equivalent and lets
validation treat a fresh state as "no paths known yet".

A state always holds the whole n×n matrix of one in-memory solve.
Store shards, repairs and the cluster build need none: their flagless
rows are written by the native kernel straight into caller-owned
blocks (:func:`repro.core.runner.solve_apsp_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..exceptions import AlgorithmError
from ..simx.trace import SimResult
from ..types import INF, OpCounts, PhaseTimes

__all__ = ["APSPState", "APSPResult", "new_state"]


@dataclass
class APSPState:
    """Mutable working state shared by all SSSP sweeps of one APSP run."""

    #: ``float64[n, n]`` distance matrix; row s is the SSSP result from s
    dist: np.ndarray
    #: ``uint8[n]``; ``flag[t] == 1`` means row t is final (Algorithm 1
    #: line 21) and may be merged by later runs
    flag: np.ndarray

    @property
    def n(self) -> int:
        return self.flag.size

    def reset(self) -> None:
        """Back to the Algorithm 2 initial state."""
        self.dist.fill(INF)
        np.fill_diagonal(self.dist, 0.0)
        self.flag.fill(0)


def new_state(n: int) -> APSPState:
    """Fresh state for an ``n``-vertex graph."""
    if n < 0:
        raise AlgorithmError(f"vertex count must be >= 0, got {n}")
    state = APSPState(dist=np.empty((n, n)), flag=np.zeros(n, dtype=np.uint8))
    state.reset()
    return state


@dataclass
class APSPResult:
    """Everything a solver run reports.

    ``dist`` is the exact APSP matrix (identical across algorithms and
    backends — the paper's §5 exactness claim, asserted in tests).
    ``phase_times`` is wall-clock seconds for real backends and virtual
    work units for the SIM backend; ``sim_ordering`` / ``sim_dijkstra``
    carry the detailed simulated traces when applicable.
    """

    algorithm: str
    dist: np.ndarray
    num_threads: int
    backend: str
    schedule: Optional[str] = None
    order: Optional[np.ndarray] = None
    ordering_method: Optional[str] = None
    phase_times: PhaseTimes = field(default_factory=PhaseTimes)
    #: aggregated operation counters over all SSSP sweeps
    ops: OpCounts = field(default_factory=OpCounts)
    #: which sweep kernel ran: ``"native"``, ``"python (<why>)"``, or
    #: ``None`` for solvers that run no modified-Dijkstra sweep phase
    sweep_kernel: Optional[str] = None
    #: the native row merge's instruction set (``"avx2"`` or
    #: ``"scalar"``), ``None`` unless ``sweep_kernel == "native"``
    sweep_simd: Optional[str] = None
    #: per-source total work (cost-model units), aligned with vertex id
    per_source_work: Optional[np.ndarray] = None
    sim_ordering: Optional[SimResult] = None
    sim_dijkstra: Optional[SimResult] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def total_time(self) -> float:
        return self.phase_times.total

    def reachable_pairs(self) -> int:
        """Number of finite entries of D (including the diagonal)."""
        return int(np.isfinite(self.dist).sum())

    def summary(self) -> Dict[str, float]:
        return {
            "n": float(self.n),
            "threads": float(self.num_threads),
            "ordering_time": self.phase_times.ordering,
            "dijkstra_time": self.phase_times.dijkstra,
            "total_time": self.total_time,
            "total_work": float(self.ops.total_work()),
        }

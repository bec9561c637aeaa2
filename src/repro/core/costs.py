"""Cost model: operation counts → virtual work units.

The simulator prices one SSSP sweep from the operation counters the
real implementation reports.  Constants are per *logical* operation —
a queue pop, one attempted edge relaxation, one element comparison of a
row merge — so they are independent of how the Python/numpy
implementation batches the work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..types import OpCounts

__all__ = ["DijkstraCostModel", "DEFAULT_COST_MODEL"]


@dataclass(frozen=True)
class DijkstraCostModel:
    """Per-operation costs of the modified Dijkstra (work units)."""

    #: dequeue + flag test + loop bookkeeping
    pop: float = 3.0
    #: one attempted edge relaxation (load weight, compare, maybe store)
    edge_relaxation: float = 4.0
    #: one element of a row merge (load, add, compare, maybe store)
    merge_comparison: float = 1.0
    #: fixed overhead per merge (row addressing, prune branch)
    row_merge: float = 10.0
    #: fixed overhead per SSSP call (queue setup, source row init)
    call: float = 60.0

    def sweep_cost(self, counts: OpCounts) -> float:
        """Virtual duration of one SSSP sweep."""
        return (
            self.call
            + self.pop * counts.pops
            + self.edge_relaxation * counts.edge_relaxations
            + self.merge_comparison * counts.merge_comparisons
            + self.row_merge * counts.row_merges
        )

    def sweep_costs(self, counts: np.ndarray) -> np.ndarray:
        """:meth:`sweep_cost` of every row of an ``(n, 6)`` count matrix
        (columns in ``OpCounts`` field order), summed in the same order,
        so each entry equals :meth:`sweep_cost` of that row bitwise."""
        return np.asarray(
            self.call
            + self.pop * counts[:, 0]
            + self.edge_relaxation * counts[:, 1]
            + self.merge_comparison * counts[:, 4]
            + self.row_merge * counts[:, 3],
            dtype=np.float64,
        )


DEFAULT_COST_MODEL = DijkstraCostModel()

"""Vectorised inner kernels of the Python modified Dijkstra's algorithm.

The per-call primitives of Algorithm 1:

* :func:`merge_row` — lines 7–11: fold a finalised row ``D[t, :]`` into
  the working row ``D[s, :]`` through the known prefix ``D[s, t]``.
* :func:`relax_edges` — lines 13–18: relax every arc out of ``t`` and
  report which targets improved (they must be enqueued).

The native kernel (:mod:`repro.core.native`) performs the same float
operations in the same order and counts them under the same names.

Observability: when a :mod:`repro.obs` registry is installed these
report per-call counters (``kernel.merge_row.*`` / ``kernel.relax.*``)
that ``repro.obs.regress`` cross-checks against the ``ops.*`` totals.
Disabled, the extra cost is one module-attribute load and an ``is
None`` test per call.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..obs import metrics as _obs

__all__ = ["merge_row", "relax_edges"]


def merge_row(
    ds: np.ndarray, dt: np.ndarray, ds_t: float
) -> int:
    """``ds[v] = min(ds[v], ds_t + dt[v])`` for all v; returns the number
    of improved entries.

    ``dt`` must be a *final* distance row (its owner set ``flag``), so no
    vertex needs re-enqueueing: for any continuation v→x the final row
    already dominates, ``dt[x] ≤ dt[v] + d(v, x)``.
    """
    cand = ds_t + dt
    mask = cand < ds
    improved = int(np.count_nonzero(mask))
    if improved:
        np.copyto(ds, cand, where=mask)
    reg = _obs._current
    if reg is not None:
        reg.add("kernel.merge_row.calls", 1)
        reg.add("kernel.merge_row.improved", improved)
        if improved == 0:
            reg.add("kernel.merge_row.noop", 1)
            if np.isinf(cand).all():
                reg.add("kernel.merge_row.all_inf_row", 1)
    return improved


def relax_edges(
    ds: np.ndarray,
    neighbors: np.ndarray,
    weights: np.ndarray,
    ds_t: float,
) -> Tuple[np.ndarray, int]:
    """Relax the out-arcs of one vertex.

    Returns ``(improved_targets, improved_count)`` where
    ``improved_targets`` are the neighbour ids whose distance got
    smaller (the Enqueue set of Algorithm 1 line 16).  Rows of a
    :class:`~repro.graphs.csr.CSRGraph` are duplicate-free, so the
    scatter-assign below has no write conflicts.
    """
    reg = _obs._current
    if neighbors.size == 0:
        if reg is not None:
            reg.add("kernel.relax.calls", 1)
            reg.add("kernel.relax.empty_frontier", 1)
        return neighbors, 0
    cand = ds_t + weights
    current = ds[neighbors]
    mask = cand < current
    improved = int(np.count_nonzero(mask))
    if reg is not None:
        reg.add("kernel.relax.calls", 1)
        reg.add("kernel.relax.attempted", int(neighbors.size))
        reg.add("kernel.relax.improved", improved)
    if improved == 0:
        return neighbors[:0], 0
    targets = neighbors[mask]
    ds[targets] = cand[mask]
    return targets, improved

"""Vectorised inner kernels of the modified Dijkstra's algorithm.

Two layers live here:

**Row kernels** — the original per-call primitives of Algorithm 1:

* :func:`merge_row` — lines 7–11: fold a finalised row ``D[t, :]`` into
  the working row ``D[s, :]`` through the known prefix ``D[s, t]``.
* :func:`relax_edges` — lines 13–18: relax every arc out of ``t`` and
  report which targets improved (they must be enqueued).

**Blocked kernels** — the same two operations for many working rows
in one numpy call, behind the lockstep engine of
:mod:`repro.core.batch`:

* :func:`merge_block` — a 2-D min-plus merge (``cand = D[hubs] +
  prefix[:, None]`` folded into the block's rows);
* :func:`relax_block` — one concatenated-CSR frontier relaxation.

Each is *bitwise-identical* in its effect on the distance matrix to the
equivalent row-kernel calls, and the engine counts the same logical
operations, so the cost model (:mod:`repro.core.costs`) and the
simulator stay valid whichever layer executed the work.

Observability: when a :mod:`repro.obs` registry is installed the row
kernels report per-call counters (``kernel.merge_row.*`` /
``kernel.relax.*``) and the blocked kernels report per-batch counters
(``kernel.batch.*``).  The logical totals line up either way —
``repro.obs.regress`` checks exactly that invariant.  Disabled, the
extra cost is one module-attribute load and an ``is None`` test per
call.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..obs import metrics as _obs

__all__ = ["merge_row", "relax_edges", "merge_block", "relax_block"]


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


# ---------------------------------------------------------------------------
# Blocked kernels: one numpy call for a whole round of the lockstep engine
# ---------------------------------------------------------------------------


def merge_block(dist: np.ndarray, rows: np.ndarray, hubs: np.ndarray) -> None:
    """``dist[rows[i]] = min(dist[rows[i]], dist[rows[i], hubs[i]]
    + dist[hubs[i]])`` for every i — many :func:`merge_row` calls in one.

    ``rows`` must be duplicate-free (each source contributes at most
    one merge per round) and every ``hubs[i]`` row final.
    """
    prefix = dist[rows, hubs]
    cand = dist[hubs]  # (B, n) gather — a copy, safe to mutate
    cand += prefix[:, None]
    cur = dist[rows]
    reg = _obs._current
    if reg is not None:
        improved = int(np.count_nonzero(cand < cur))
        reg.add("kernel.batch.merge.calls", 1)
        reg.add("kernel.batch.merge.rows", int(rows.size))
        reg.add("kernel.batch.merge.improved", improved)
    np.minimum(cur, cand, out=cur)
    dist[rows] = cur


def relax_block(
    dist: np.ndarray,
    rows: np.ndarray,
    hubs: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Relax the out-arcs of ``hubs[i]`` within row ``rows[i]`` for
    every i — many :func:`relax_edges` calls in one.

    Returns ``(targets, attempted)``: per-segment improved neighbour
    ids (the Enqueue sets, in CSR order) and the per-segment
    attempted-arc counts.  ``rows`` must be duplicate-free.
    """
    starts = indptr[hubs]
    lens = indptr[hubs + 1] - starts
    bounds = np.cumsum(lens)
    total = int(bounds[-1]) if lens.size else 0
    reg = _obs._current
    if total == 0:
        if reg is not None:
            reg.add("kernel.batch.relax.calls", 1)
            reg.add("kernel.batch.relax.segments", int(rows.size))
            reg.add("kernel.batch.relax.empty", int(rows.size))
        return [indices[:0]] * rows.size, lens
    # flat CSR positions: for segment k, starts[k] + (0 .. lens[k]-1)
    pos = (
        np.arange(total, dtype=np.int64)
        - np.repeat(bounds - lens, lens)
        + np.repeat(starts, lens)
    )
    nbrs = indices[pos]
    rowrep = np.repeat(rows, lens)
    cand = np.repeat(dist[rows, hubs], lens) + weights[pos]
    cur = dist[rowrep, nbrs]
    imp = np.flatnonzero(cand < cur)
    if imp.size:
        # rows are duplicate-free and each CSR row is duplicate-free,
        # so every (row, nbr) pair is unique and the scatter-assign has
        # no write conflicts
        dist[rowrep[imp], nbrs[imp]] = cand[imp]
    imp_nbrs = nbrs[imp]
    # manual slicing instead of np.split: the per-chunk dispatch of
    # array_split dominates this kernel's fixed cost otherwise
    targets = []
    prev = 0
    for end in np.searchsorted(imp, bounds).tolist():
        targets.append(imp_nbrs[prev:end])
        prev = end
    if reg is not None:
        reg.add("kernel.batch.relax.calls", 1)
        reg.add("kernel.batch.relax.segments", int(rows.size))
        reg.add("kernel.batch.relax.attempted", total)
        reg.add("kernel.batch.relax.improved", int(imp.size))
        empties = int(np.count_nonzero(lens == 0))
        if empties:
            reg.add("kernel.batch.relax.empty", empties)
    return targets, lens

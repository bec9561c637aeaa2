"""Vectorised inner kernels of the modified Dijkstra's algorithm.

Two layers live here:

**Row kernels** — the original per-call primitives of Algorithm 1:

* :func:`merge_row` — lines 7–11: fold a finalised row ``D[t, :]`` into
  the working row ``D[s, :]`` through the known prefix ``D[s, t]``.
* :func:`relax_edges` — lines 13–18: relax every arc out of ``t`` and
  report which targets improved (they must be enqueued).

**Blocked kernels** — the dispatch layer behind the batched sweep
engine (:mod:`repro.core.batch`).  A blocked kernel performs the *same
logical operations* for many working rows in one numpy call: a 2-D
min-plus merge (``cand = D[hubs] + prefix[:, None]`` folded into the
block's rows) and a concatenated-CSR frontier relaxation.  Three
implementations sit behind one interface:

=========== ===========================================================
``row``     reference: loops over the row kernels above (used to
            cross-check the vectorised paths and as a fallback)
``blocked`` pure-numpy 2-D kernels — the default
``scipy``   like ``blocked`` but gathers CSR segments through
            ``scipy.sparse`` row slicing
=========== ===========================================================

Every implementation is *bitwise-identical* in its effect on the
distance matrix and reports identical logical operation counts, so the
cost model (:mod:`repro.core.costs`) and the simulator remain valid no
matter which kernel executed the work.

Observability: when a :mod:`repro.obs` registry is installed the row
kernels report per-call counters (``kernel.merge_row.*`` /
``kernel.relax.*``) and the blocked kernels report per-batch counters
(``kernel.batch.*``).  The logical totals line up either way —
``repro.obs.regress`` checks exactly that invariant.  Disabled, the
extra cost is one module-attribute load and an ``is None`` test per
call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from ..exceptions import AlgorithmError
from ..obs import metrics as _obs

__all__ = [
    "merge_row",
    "relax_edges",
    "BlockKernel",
    "RowBlockKernel",
    "BlockedKernel",
    "ScipyBlockKernel",
    "KERNELS",
    "kernel_names",
    "resolve_kernel",
]


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
# Blocked kernel dispatch layer
# ---------------------------------------------------------------------------


class BlockKernel:
    """One batched round of merge / relax work for a block of sources.

    The batched sweep engine calls :meth:`merge_block` with the rows
    that popped a flagged vertex this round and :meth:`relax_block`
    with the rows that popped an unflagged one.  Implementations must
    leave the distance matrix bitwise-identical to issuing the
    equivalent row-kernel calls one at a time (asserted by the test
    suite), which is what keeps ``OpCounts`` and the cost model honest.
    """

    name = "abstract"

    def merge_block(
        self,
        dist: np.ndarray,
        rows: np.ndarray,
        hubs: np.ndarray,
    ) -> None:
        """``dist[rows[i]] = min(dist[rows[i]], dist[rows[i], hubs[i]]
        + dist[hubs[i]])`` for every i — B merges, one call.

        ``rows`` must be duplicate-free (each source contributes at
        most one merge per round) and every ``hubs[i]`` row final.
        """
        raise NotImplementedError

    def relax_block(
        self,
        dist: np.ndarray,
        rows: np.ndarray,
        hubs: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Relax the out-arcs of ``hubs[i]`` within row ``rows[i]``.

        Returns ``(targets, attempted)``: per-segment improved
        neighbour ids (the Enqueue sets, in CSR order) and the
        per-segment attempted-arc counts.  ``rows`` duplicate-free.
        """
        raise NotImplementedError


class RowBlockKernel(BlockKernel):
    """Reference implementation: loop over the row kernels.

    Emits ``kernel.merge_row.*`` / ``kernel.relax.*`` counters exactly
    like the unbatched sweep; exists so the vectorised kernels can be
    cross-checked against the audited primitives.
    """

    name = "row"

    def merge_block(self, dist, rows, hubs) -> None:
        for r, h in zip(rows, hubs):
            merge_row(dist[r], dist[h], float(dist[r, h]))

    def relax_block(self, dist, rows, hubs, indptr, indices, weights):
        targets: List[np.ndarray] = []
        attempted = np.empty(rows.size, dtype=np.int64)
        for i, (r, h) in enumerate(zip(rows, hubs)):
            lo, hi = indptr[h], indptr[h + 1]
            nbrs = indices[lo:hi]
            attempted[i] = nbrs.size
            got, _ = relax_edges(
                dist[r], nbrs, weights[lo:hi], float(dist[r, h])
            )
            targets.append(got)
        return targets, attempted


class BlockedKernel(BlockKernel):
    """Pure-numpy 2-D kernels: one call per round, any block size."""

    name = "blocked"

    def merge_block(self, dist, rows, hubs) -> None:
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

    def _gather_segments(
        self, hubs, indptr, indices, weights
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated CSR slices of ``hubs`` → (nbrs, ws, lens)."""
        starts = indptr[hubs]
        lens = indptr[hubs + 1] - starts
        total = int(lens.sum())
        if total == 0:
            empty = indices[:0]
            return empty, weights[:0], lens
        # flat positions: for segment k, starts[k] + (0 .. lens[k]-1)
        seg_flat = np.cumsum(lens) - lens
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(seg_flat, lens)
            + np.repeat(starts, lens)
        )
        return indices[pos], weights[pos], lens

    def relax_block(self, dist, rows, hubs, indptr, indices, weights):
        nbrs, ws, lens = self._gather_segments(
            hubs, indptr, indices, weights
        )
        reg = _obs._current
        bounds = np.cumsum(lens)
        total = int(bounds[-1]) if lens.size else 0
        if total == 0:
            if reg is not None:
                reg.add("kernel.batch.relax.calls", 1)
                reg.add("kernel.batch.relax.segments", int(rows.size))
                reg.add("kernel.batch.relax.empty", int(rows.size))
            return [nbrs] * rows.size, lens
        rowrep = np.repeat(rows, lens)
        base = np.repeat(dist[rows, hubs], lens)
        cand = base + ws
        cur = dist[rowrep, nbrs]
        mask = cand < cur
        imp = np.flatnonzero(mask)
        if imp.size:
            # rows are duplicate-free and each CSR row is
            # duplicate-free, so every (row, nbr) pair is unique and
            # the scatter-assign has no write conflicts
            dist[rowrep[imp], nbrs[imp]] = cand[imp]
        imp_nbrs = nbrs[imp]
        # manual slicing instead of np.split: the per-chunk dispatch of
        # array_split dominates this kernel's fixed cost otherwise
        cuts = np.searchsorted(imp, bounds).tolist()
        targets = []
        prev = 0
        for end in cuts:
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


class ScipyBlockKernel(BlockedKernel):
    """Blocked kernels with CSR segment gathering via ``scipy.sparse``.

    Row slicing a scipy CSR matrix concatenates the per-row index and
    data arrays in C, which replaces the repeat/cumsum position
    arithmetic of the numpy implementation.  scipy is imported on
    instantiation, so importing this module needs numpy only.
    """

    name = "scipy"

    def __init__(self) -> None:
        from scipy import sparse

        self._sparse = sparse
        self._cache_key: Optional[int] = None
        self._cache_mat = None

    def _matrix(self, indptr, indices, weights):
        key = id(indices)
        if self._cache_key != key:
            n = indptr.size - 1
            self._cache_mat = self._sparse.csr_matrix(
                (weights, indices, indptr), shape=(n, n), copy=False
            )
            self._cache_key = key
        return self._cache_mat

    def _gather_segments(self, hubs, indptr, indices, weights):
        mat = self._matrix(indptr, indices, weights)
        sub = mat[hubs]
        lens = np.diff(sub.indptr).astype(np.int64)
        return sub.indices.astype(np.int64), sub.data, lens


#: registry of the blocked-kernel implementations
KERNELS: Dict[str, Type[BlockKernel]] = {
    kernel.name: kernel
    for kernel in (RowBlockKernel, BlockedKernel, ScipyBlockKernel)
}


def kernel_names() -> Tuple[str, ...]:
    return tuple(KERNELS)


def resolve_kernel(name: "str | BlockKernel" = "auto") -> BlockKernel:
    """Instantiate a blocked kernel by name (``"auto"`` → ``blocked``)."""
    if isinstance(name, BlockKernel):
        return name
    if name == "auto":
        name = BlockedKernel.name
    try:
        return KERNELS[name]()
    except KeyError:
        raise AlgorithmError(
            f"unknown kernel {name!r}; available: "
            f"{', '.join(KERNELS)} (or 'auto')"
        ) from None

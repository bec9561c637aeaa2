"""Classic (unmodified) Dijkstra — the reuse-free reference and kernel.

:func:`dijkstra_sssp` is the pure-Python reference, used by the
repeated-Dijkstra baseline and by ablations that measure how much the
flag shortcut saves.  Binary heap with lazy deletion; O((n + m) log n).

:func:`dijkstra_rows` is the kernel behind every flagless exact-row
path (store builds, repair, update re-solves, Johnson's inner solve):
the paper's Algorithm 1 sweep in ``_sweep.c`` with a FIFO queue and
flags off, one foreign call per block of rows that drops the
interpreter lock.  With non-negative weights every Dijkstra variant,
label-setting or label-correcting, converges to the same float
fixpoint, the minimum over paths of the left-to-right float sum
(``fl(a + w)`` is monotone in ``a`` and never below it), so its rows
are bitwise-identical to the per-vertex sweeps' and to
``scipy.sparse.csgraph.dijkstra``.  scipy is the fallback when the
kernel does not load, imported on that first call, so importing
:mod:`repro` needs numpy only.

That fixpoint argument covers flagless sweeps only.  A sweep that
merges a finished row (Algorithm 1's reuse) sums ``d(s, t) + d(t, v)``
in a different order than the path's left-to-right sum, which can move
the last bit of a float weight.  :func:`hub_rows` therefore solves
reusable "hub" rows only behind :func:`exact_sums`: every weight a
finite integer and ``(n - 1) * max_w < 2**53``, so every path sum is
an exact integer, every summation order gives the same bits, and the
rows :func:`dijkstra_rows` merges them into are bitwise the flagless
ones.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Optional

import numpy as np

from ..exceptions import AlgorithmError, NegativeWeightError
from ..graphs.csr import CSRGraph
from ..obs import metrics as _obs
from ..types import INF, OpCounts
from . import native

__all__ = ["HubRows", "dijkstra_sssp", "dijkstra_rows", "exact_sums",
           "hub_rows"]


def dijkstra_sssp(
    graph: CSRGraph, source: int, *, out: np.ndarray | None = None
) -> tuple[np.ndarray, OpCounts]:
    """Single-source shortest distances from ``source``.

    Returns ``(dist, counts)`` where ``dist[v]`` is the shortest
    distance (``inf`` if unreachable).
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise AlgorithmError(f"source {source} outside [0, {n})")
    if out is None:
        dist = np.full(n, INF)
    else:
        if out.shape != (n,):
            raise AlgorithmError(f"out buffer must have shape ({n},)")
        dist = out
        dist.fill(INF)
    counts = OpCounts()
    dist[source] = 0.0
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    heap = [(0.0, source)]
    settled = np.zeros(n, dtype=bool)
    while heap:
        d, t = heapq.heappop(heap)
        counts.pops += 1
        if settled[t]:
            continue
        settled[t] = True
        for k in range(indptr[t], indptr[t + 1]):
            v = indices[k]
            counts.edge_relaxations += 1
            nd = d + weights[k]
            if nd < dist[v]:
                dist[v] = nd
                counts.edge_improvements += 1
                heapq.heappush(heap, (nd, int(v)))
    return dist, counts


class HubRows(NamedTuple):
    """Finished rows a :func:`dijkstra_rows` call may merge: ``slot[t]``
    is vertex ``t``'s row in ``rows``, or -1.  Made by :func:`hub_rows`,
    behind its exactness gate, for one graph."""

    rows: np.ndarray
    slot: np.ndarray


def exact_sums(graph: CSRGraph) -> bool:
    """Whether every path sum of ``graph`` is exact in float64: every
    weight a finite integer and ``(n - 1) * max_w < 2**53``, so a
    shortest distance, and every sum a sweep compares against one, is
    the same in any summation order."""
    w = graph.weights
    if not len(w):
        return True
    if not np.isfinite(w).all() or (w != np.floor(w)).any():
        return False
    return (graph.num_vertices - 1) * int(w.max()) < 2**53


def hub_rows(graph: CSRGraph, ids) -> Optional[HubRows]:
    """Solve the rows of ``ids`` (distinct vertices, best hubs first)
    for :func:`dijkstra_rows` to reuse, or ``None`` where reuse could
    move a bit (:func:`exact_sums` fails), where there is nothing to
    reuse, or where the native kernel, the only path that merges, does
    not load.  The block is ``len(ids) × n`` float64, solved in an
    ``apsp.shard`` span that counts ``sweep.hub_rows``."""
    ids = np.ascontiguousarray(ids, dtype=np.int64).reshape(-1)
    if not len(ids) or native.load()[0] is None or not exact_sums(graph):
        return None
    hubs = HubRows(np.empty((len(ids), graph.num_vertices)),
                   np.full(graph.num_vertices, -1, dtype=np.int64))
    with _obs.span("apsp.shard"):
        # the block is its own hub block: each row, once swept, is
        # merged by the later ones, Algorithm 1 over the hubs in order
        dijkstra_rows(graph, ids, out=hubs.rows, hubs=hubs)
        _obs.counter_add("sweep.hub_rows", len(ids))
    return hubs


def dijkstra_rows(
    graph: CSRGraph, sources, *, out: np.ndarray | None = None,
    hubs: HubRows | None = None,
) -> np.ndarray:
    """Shortest-distance rows ``(len(sources), n)``, one per source.

    Row ``p`` is the distances from ``sources[p]``; sources may repeat
    and come in any order.  ``out``, a C-contiguous float64 block of
    that shape, receives the rows (a shard buffer, so a store build
    never allocates n × n); the rows are returned either way.  Zero
    weights are allowed; negative ones raise
    :class:`~repro.exceptions.NegativeWeightError` on either path (a
    FIFO sweep could otherwise loop on a negative cycle).

    ``hubs``, from :func:`hub_rows` on this same graph, lets each sweep
    merge a hub's row instead of relaxing its edges, and a hub source's
    row is copied; the rows stay bitwise the flagless ones (see the
    module docstring).  ``hubs.rows is out`` fills the hub block itself,
    each row merged by the later ones.  The scipy fallback ignores
    ``hubs``.
    """
    n = graph.num_vertices
    sources = np.ascontiguousarray(sources, dtype=np.int64).reshape(-1)
    if graph.has_negative_weights:
        raise NegativeWeightError(
            f"graph {graph.name or 'anonymous'!r} has negative arc "
            "weights; exact rows need non-negative ones"
        )
    if len(sources) and (sources.min() < 0 or sources.max() >= n):
        raise AlgorithmError(f"sources must be vertex ids in [0, {n})")
    shape = (len(sources), n)
    if out is None:
        out = np.empty(shape)
    elif (out.shape != shape or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise AlgorithmError(
            f"out must be a C-contiguous float64 block of shape {shape}"
        )
    if hubs is not None and hubs.slot.shape != (n,):
        raise AlgorithmError(f"hub rows must be for a graph of {n} vertices")
    lib, _ = native.load()
    if lib is not None:
        if hubs is None:
            native.sweep_rows(lib, graph, sources, out)
        else:
            native.sweep_rows(lib, graph, sources, out, hub=hubs.rows,
                              slot=hubs.slot)
        return out
    from scipy.sparse.csgraph import dijkstra

    from ..graphs.build import to_scipy_csr

    out[...] = dijkstra(to_scipy_csr(graph), directed=True, indices=sources)
    return out

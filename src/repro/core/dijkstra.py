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
"""

from __future__ import annotations

import heapq

import numpy as np

from ..exceptions import AlgorithmError, NegativeWeightError
from ..graphs.csr import CSRGraph
from ..types import INF, OpCounts
from . import native

__all__ = ["dijkstra_sssp", "dijkstra_rows"]


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


def dijkstra_rows(
    graph: CSRGraph, sources, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Shortest-distance rows ``(len(sources), n)``, one per source.

    Row ``p`` is the distances from ``sources[p]``; sources may repeat
    and come in any order.  ``out``, a C-contiguous float64 block of
    that shape, receives the rows (a shard buffer, so a store build
    never allocates n × n); the rows are returned either way.  Zero
    weights are allowed; negative ones raise
    :class:`~repro.exceptions.NegativeWeightError` on either path (a
    FIFO sweep could otherwise loop on a negative cycle).
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
    lib, _ = native.load()
    if lib is not None:
        native.sweep_rows(lib, graph, sources, out)
        return out
    from scipy.sparse.csgraph import dijkstra

    from ..graphs.build import to_scipy_csr

    out[...] = dijkstra(to_scipy_csr(graph), directed=True, indices=sources)
    return out

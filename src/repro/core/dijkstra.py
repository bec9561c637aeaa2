"""Classic (unmodified) Dijkstra — the reuse-free reference and kernel.

:func:`dijkstra_sssp` is the pure-Python reference, used by the
repeated-Dijkstra baseline and by ablations that measure how much the
flag shortcut saves.  Binary heap with lazy deletion; O((n + m) log n).

:func:`dijkstra_rows` is the compiled kernel behind every flagless
exact-row path (store builds, repair, update re-solves):
``scipy.sparse.csgraph.dijkstra`` over many sources in one call.  With
non-negative weights every Dijkstra variant converges to the same float
fixpoint, the minimum over paths of the left-to-right float sum
(``fl(a + w)`` is monotone in ``a`` and never below it), so its rows are
bitwise-identical to the per-vertex sweeps'.  scipy is imported on
first use, so importing :mod:`repro` needs numpy only.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..exceptions import AlgorithmError
from ..graphs.csr import CSRGraph
from ..types import INF, OpCounts

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


def dijkstra_rows(graph, sources) -> np.ndarray:
    """Shortest-distance rows ``(len(sources), n)``, one per source.

    ``graph`` is a :class:`CSRGraph` (zero weights allowed, negative
    ones not) or the matrix :func:`repro.graphs.build.to_scipy_csr`
    made of one; pass the matrix to reuse it across calls.  scipy holds
    the interpreter lock for the whole call, so callers that share the
    process with readers keep ``sources`` to one shard's worth.
    """
    from scipy.sparse.csgraph import dijkstra

    from ..graphs.build import to_scipy_csr

    csr = to_scipy_csr(graph) if isinstance(graph, CSRGraph) else graph
    return dijkstra(
        csr, directed=True, indices=np.asarray(sources, dtype=np.int64)
    )

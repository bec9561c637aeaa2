"""Johnson's algorithm as a registered APSP solver.

Johnson (1977) extends the Dijkstra-family APSP to graphs with negative
arc weights: a Bellman–Ford pass from a virtual super-source computes a
potential ``h[v]`` per vertex, every arc is reweighted to
``w'(u,v) = w(u,v) + h[u] - h[v] ≥ 0``, and the all-pairs phase runs
plain non-negative sweeps on the reweighted graph; true distances come
back via ``D[s,v] = D'[s,v] - h[s] + h[v]``.  A negative cycle makes
the potentials unbounded — the Bellman–Ford phase detects it (an
improvement on the n-th pass) and raises
:class:`~repro.exceptions.NegativeCycleError`.

The APSP phase is *exactly* the paper's sweep pipeline run on the inner
graph: every source is independent, so the native sweep kernel, the
process backend, the SIM machine model and the fault-injection retry
paths all ride along unchanged, and Algorithm 1's flag reuse stays
valid (rows of the reweighted graph merge in reweighted space; the
un-reweighting happens once at the end).

On a graph with no negative arcs the potentials are identically zero —
the virtual super-source reaches every vertex at cost 0 and no
non-negative arc can improve on that — so the inner graph *is* the
input graph, nothing is un-reweighted, and Johnson's output is
bitwise identical to the sweep family's.  The cross-solver parity suite
asserts exactly that.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np

from ..exceptions import NegativeCycleError
from ..graphs.csr import CSRGraph
from ..obs import metrics as _obs
from ..types import INF, Backend, Schedule, VERTEX_DTYPE
from .registry import ShardHooks, SolverSpec, register_solver
from .state import APSPResult

__all__ = [
    "bellman_ford_potentials",
    "bellman_ford_sssp",
    "bellman_ford_apsp",
    "reweight_graph",
]


def _arc_sources(graph: CSRGraph) -> np.ndarray:
    return np.repeat(
        np.arange(graph.num_vertices, dtype=VERTEX_DTYPE),
        np.diff(graph.indptr),
    )


def bellman_ford_potentials(
    graph: CSRGraph,
) -> Tuple[np.ndarray, int, int]:
    """Johnson potentials via vectorized Bellman–Ford.

    Starting from the all-zero vector (equivalent to one relaxation
    round from the virtual super-source wired to every vertex at cost
    0), each pass relaxes *all* arcs with one scatter-min; at the
    fixpoint ``h[v] ≤ h[u] + w(u,v)`` holds exactly for every arc.  An
    improvement still possible on the n-th pass proves a negative cycle
    and raises :class:`~repro.exceptions.NegativeCycleError` with a
    witness vertex.

    Returns ``(h, passes, relaxations)`` — potentials (always finite),
    relaxation passes run, and total arcs scanned (the virtual-time
    cost of the phase).
    """
    n = graph.num_vertices
    src = _arc_sources(graph)
    dst = graph.indices
    w = graph.weights
    h = np.zeros(n, dtype=np.float64)
    relaxations = 0
    for passes in range(1, n + 1):
        h_new = h.copy()
        np.minimum.at(h_new, dst, h[src] + w)
        relaxations += int(w.size)
        if np.array_equal(h_new, h):
            return h, passes, relaxations
        if passes == n:
            witness = int(np.nonzero(h_new != h)[0][0])
            raise NegativeCycleError(
                "graph contains a negative-weight cycle (Bellman–Ford "
                f"still improving vertex {witness} after {n} passes); "
                "shortest-path distances are undefined",
                witness=witness,
            )
        h = h_new
    return h, 0, relaxations  # n == 0: nothing to do


def bellman_ford_sssp(graph: CSRGraph, source: int) -> np.ndarray:
    """Reference single-source Bellman–Ford (negative weights allowed).

    O(n·m) and unvectorized across sources — this is the *oracle* the
    parity property suite checks Johnson against, not a production
    solver.  Raises :class:`~repro.exceptions.NegativeCycleError` when
    a negative cycle is reachable from ``source``.
    """
    n = graph.num_vertices
    src = _arc_sources(graph)
    dst = graph.indices
    w = graph.weights
    dist = np.full(n, INF)
    dist[source] = 0.0
    for passes in range(1, n + 1):
        new = dist.copy()
        np.minimum.at(new, dst, dist[src] + w)
        if np.array_equal(new, dist):
            return dist
        if passes == n:
            witness = int(np.nonzero(new != dist)[0][0])
            raise NegativeCycleError(
                "negative-weight cycle reachable from source "
                f"{source} (witness vertex {witness})",
                witness=witness,
            )
        dist = new
    return dist


def bellman_ford_apsp(graph: CSRGraph) -> np.ndarray:
    """Reference APSP matrix by n independent Bellman–Ford runs."""
    n = graph.num_vertices
    out = np.empty((n, n), dtype=np.float64)
    for s in range(n):
        out[s] = bellman_ford_sssp(graph, s)
    return out


def reweight_graph(graph: CSRGraph, h: np.ndarray) -> CSRGraph:
    """The non-negative inner graph ``w' = (w + h[u]) - h[v]``.

    The subtraction order matters: at the Bellman–Ford fixpoint
    ``h[v] <= h[u] + w`` holds as an exact float comparison, so
    computing ``(w + h[u]) - h[v]`` — the very same intermediate the
    fixpoint compared — is ``>= 0`` in IEEE arithmetic, never a tiny
    negative.  Zero weights are possible and fine for the sweeps.
    """
    src = _arc_sources(graph)
    weights = (graph.weights + h[src]) - h[graph.indices]
    return CSRGraph(
        graph.indptr.copy(),
        graph.indices.copy(),
        weights,
        directed=graph.directed,
        name=graph.name and f"{graph.name}:reweighted",
        allow_negative=True,  # zeros allowed; strict negatives impossible
    )


def _emit_bf_metrics(passes: int, relaxations: int, reweighted: bool) -> None:
    reg = _obs.get_registry()
    if reg is not None:
        reg.add("johnson.bf.passes", passes)
        reg.add("johnson.bf.relaxations", relaxations)
        reg.gauge_set("johnson.reweighted", 1.0 if reweighted else 0.0)


def _solve_johnson(graph: CSRGraph, cfg, spec: SolverSpec) -> APSPResult:
    """``spec.solve`` entry point: potentials, inner sweep, un-reweight.

    The inner APSP delegates to the sweep family's solve path with this
    spec, so ``johnson`` honours every pipeline knob (ordering,
    schedule, backend, faults) exactly like ``parapsp`` does.
    """
    from .runner import _solve_sweep_family

    backend = Backend(cfg.parallel.backend)
    with _obs.span("apsp.reweight"):
        t0 = time.perf_counter()
        h, passes, relaxations = bellman_ford_potentials(graph)
        bf_seconds = time.perf_counter() - t0
        reweighted = bool(np.any(h != 0.0))
        inner = reweight_graph(graph, h) if reweighted else graph
    _emit_bf_metrics(passes, relaxations, reweighted)

    result = _solve_sweep_family(inner, cfg, spec)

    if reweighted:
        # D[s, v] = D'[s, v] - h[s] + h[v]; INF rows stay INF (h finite)
        result.dist += h[None, :] - h[:, None]
    if backend is Backend.SIM:
        # deterministic virtual cost of the Bellman–Ford phase
        bf_cost = relaxations * cfg.obs.cost_model.edge_relaxation
    else:
        bf_cost = bf_seconds
    result.phase_times.other += bf_cost
    result.extra["johnson.bf_passes"] = float(passes)
    result.extra["johnson.reweighted"] = 1.0 if reweighted else 0.0
    return result


def _johnson_shard_hooks(graph: CSRGraph, cfg) -> ShardHooks:
    """Exact-row participation: rows are swept on the reweighted graph,
    each completed block is un-reweighted in place.

    The potentials are a pure function of the graph, so a
    :meth:`repro.serve.DistStore.repair` re-solve reproduces shard
    bytes exactly.
    """
    h, passes, relaxations = bellman_ford_potentials(graph)
    reweighted = bool(np.any(h != 0.0))
    inner = reweight_graph(graph, h) if reweighted else graph
    _emit_bf_metrics(passes, relaxations, reweighted)

    finalize = None
    if reweighted:
        def finalize(sources: np.ndarray, block: np.ndarray) -> None:
            block += h[None, :] - h[sources, None]

    return ShardHooks(inner, finalize)


register_solver(
    SolverSpec(
        name="johnson",
        ordering="multilists",
        schedule=Schedule.DYNAMIC,
        parallel=True,
        description="Johnson: Bellman–Ford reweight to non-negative, "
        "then the ParAPSP sweep pipeline per source",
        negative_weights=True,
        solve=_solve_johnson,
        shard_hooks=_johnson_shard_hooks,
    )
)

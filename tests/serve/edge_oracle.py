"""The dict-based edge mutation, kept as the oracle for the array form.

``mutate_by_dict`` is :func:`repro.serve.apply_updates_to_graph` as it
was written before the mutation moved onto the CSR arrays: validate the
batch, build a ``(u, v) -> w`` dict of the ``u < v`` arcs, edit it, and
rebuild the graph with ``from_edges``.  The property tests hold the
array form to it bitwise, errors included.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.exceptions import StoreError
from repro.graphs import from_edges
from repro.serve.update import EdgeUpdate


def edge_weights(graph) -> Dict[Tuple[int, int], float]:
    """Canonical ``(min, max) -> weight`` map of an undirected graph."""
    arcs = graph.arc_array()
    mask = arcs[:, 0] < arcs[:, 1]
    return {
        (int(u), int(v)): float(w)
        for (u, v), w in zip(arcs[mask], graph.weights[mask])
    }


def mutate_by_dict(graph, updates):
    """The mutated graph a batch describes, through a per-edge dict."""
    if graph.directed:
        raise StoreError(
            "edge updates require an undirected graph (the landmark "
            "certificates and endpoint refinement rely on d(u,v) = "
            "d(v,u))"
        )
    updates = list(updates)
    n = graph.num_vertices
    seen = set()
    for upd in updates:
        if not isinstance(upd, EdgeUpdate):
            raise StoreError(
                f"updates must be EdgeUpdate, got {type(upd).__name__}"
            )
        if upd.u >= n or upd.v >= n:
            raise StoreError(
                f"edge update ({upd.u}, {upd.v}) out of range for "
                f"graph of n={n}"
            )
        if upd.key in seen:
            raise StoreError(
                f"edge ({upd.key[0]}, {upd.key[1]}) appears twice in "
                "one update batch"
            )
        seen.add(upd.key)
    edges = edge_weights(graph)
    for upd in updates:
        if upd.weight is None:
            if upd.key not in edges:
                raise StoreError(
                    f"cannot delete absent edge ({upd.key[0]}, "
                    f"{upd.key[1]})"
                )
            del edges[upd.key]
        else:
            edges[upd.key] = upd.weight
    return from_edges(
        ((u, v, w) for (u, v), w in sorted(edges.items())),
        num_vertices=n,
        directed=False,
        name=graph.name,
    )

"""Degree utilities shared by the ordering procedures and the analysis.

The paper's ordering procedures (§2.2, §4) are all keyed on a per-vertex
``degree[]`` array whose values lie in ``[0, n)`` — the "fixed range"
property that makes bucket/counting sort applicable.  For directed
graphs the paper does not specify which degree to use; we default to
out-degree (the degree that bounds the relax loop of Algorithm 1) and
expose the choice.
"""

from __future__ import annotations

import enum

import numpy as np

from ..exceptions import GraphError
from ..types import VERTEX_DTYPE
from .csr import CSRGraph

__all__ = [
    "DegreeKind", "degree_array", "degree_bounds", "degree_histogram",
    "degree_order",
]


class DegreeKind(enum.Enum):
    """Which degree an ordering should be keyed on (directed graphs)."""

    OUT = "out"
    IN = "in"
    TOTAL = "total"

    @classmethod
    def coerce(cls, value: "DegreeKind | str") -> "DegreeKind":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            raise GraphError(
                f"unknown degree kind {value!r}; expected out/in/total"
            ) from None


def degree_array(
    graph: CSRGraph, kind: "DegreeKind | str" = DegreeKind.OUT
) -> np.ndarray:
    """Per-vertex degrees as ``int64[n]``.

    For undirected graphs all three kinds coincide (every edge is stored
    as two arcs), so the kind is accepted but irrelevant.
    """
    kind = DegreeKind.coerce(kind)
    if not graph.directed or kind is DegreeKind.OUT:
        return graph.out_degrees()
    if kind is DegreeKind.IN:
        return graph.in_degrees()
    return graph.out_degrees() + graph.in_degrees()


def degree_order(
    graph: CSRGraph, kind: "DegreeKind | str" = DegreeKind.OUT
) -> np.ndarray:
    """Vertices by descending degree, ties toward the smaller id: the
    store's landmark order and the hub order of exact-row builds."""
    return np.argsort(-degree_array(graph, kind), kind="stable")


def degree_bounds(degrees: np.ndarray) -> tuple[int, int]:
    """``(min, max)`` of a degree array; ``(0, 0)`` for empty input."""
    if degrees.size == 0:
        return (0, 0)
    return (int(degrees.min()), int(degrees.max()))


def degree_histogram(degrees: np.ndarray) -> np.ndarray:
    """``hist[k]`` = number of vertices of degree ``k`` (Figure 3 data)."""
    if degrees.size == 0:
        return np.zeros(1, dtype=VERTEX_DTYPE)
    if degrees.min() < 0:
        raise GraphError("degrees must be non-negative")
    return np.bincount(degrees).astype(VERTEX_DTYPE)

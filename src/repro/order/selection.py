"""Algorithm 3's original ordering: the O(n²) selection sort.

This is the ordering step Peng *et al.* shipped and the paper's ParAlg2
keeps verbatim (lines 6–12 of Algorithm 3): for each of the first
``r·n`` positions, scan the tail and swap whenever a larger degree is
found.  It is inherently sequential (loop-carried dependency, §3.2) and
its cost — about ``r·n²/…`` comparisons — is what Table 1 reports as a
flat ≈47 s regardless of thread count.

Two implementations are provided:

* :func:`selection_order` — the faithful loop, which also counts
  comparisons and swaps (the cost model's input).  Fine up to a few
  thousand vertices.
* ``fast=True`` — a numpy counting equivalent in O(n log n) producing
  the same *degree profile* along the order (stable ties by vertex id).
  The faithful loop's swaps shuffle equal-degree vertices in a
  data-dependent way, so the permutations can differ on ties — which is
  immaterial to the algorithm (only the degree sequence matters for the
  optimization, and the APSP output is exact under any order).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import OrderingError
from ..simx.machine import MachineSpec
from ..simx.trace import SimResult
from .base import DEFAULT_COSTS, OrderingCosts, OrderingResult

__all__ = ["selection_order", "selection_comparison_count"]


def _faithful(degrees: np.ndarray, prefix: int) -> tuple[np.ndarray, int, int]:
    """The literal loop of Algorithm 3.  Returns (order, comparisons, swaps)."""
    n = degrees.size
    order = np.arange(n, dtype=np.int64)
    comparisons = 0
    swaps = 0
    deg = degrees  # local alias, hot loop
    for i in range(prefix):
        oi = order[i]
        di = deg[oi]
        for j in range(i + 1, n):
            comparisons += 1
            oj = order[j]
            if deg[oj] > di:
                order[i], order[j] = oj, oi
                oi, di = oj, deg[oj]
                swaps += 1
    return order, comparisons, swaps


def _fast_equivalent(degrees: np.ndarray, prefix: int) -> np.ndarray:
    """Degree-profile-equivalent permutation in O(n log n).

    Matches the faithful loop position by position in *degree*; among
    equal degrees it uses the stable ascending-vertex-id convention
    (the faithful loop's swaps shuffle ties data-dependently).
    """
    n = degrees.size
    if prefix >= n:
        prefix = n
    # positions sorted by (-degree, original index) give the selection
    # result whenever no ties straddle position boundaries; the faithful
    # loop's tie behaviour differs only in the *unsorted tail*, which
    # callers never rely on (only the first prefix entries are ordered).
    order = np.lexsort((np.arange(n), -degrees)).astype(np.int64)
    if prefix == n:
        return order
    # first `prefix` positions from the stable sort; remaining tail keeps
    # ascending-id order of the leftovers (what callers observe from the
    # faithful loop is only that the tail is *some* permutation of the
    # leftovers — Algorithm 3 runs Dijkstra over the whole order array,
    # so exactness of the tail order is not part of the contract)
    head = order[:prefix]
    mask = np.ones(n, dtype=bool)
    mask[head] = False
    tail = np.flatnonzero(mask).astype(np.int64)
    return np.concatenate([head, tail])


def selection_comparison_count(n: int, ratio: float) -> int:
    """Closed-form comparison count of Algorithm 3's ordering loop."""
    prefix = _prefix(n, ratio)
    # sum_{i=0}^{prefix-1} (n - 1 - i)
    return prefix * (n - 1) - prefix * (prefix - 1) // 2


def _prefix(n: int, ratio: float) -> int:
    if not 0.0 < ratio <= 1.0:
        raise OrderingError(f"ratio must be in (0, 1], got {ratio}")
    return min(n, int(np.ceil(ratio * n)))


def selection_order(
    degrees: np.ndarray,
    *,
    ratio: float = 1.0,
    fast: bool = False,
    machine: Optional[MachineSpec] = None,
    costs: OrderingCosts = DEFAULT_COSTS,
) -> OrderingResult:
    """Order vertices by Algorithm 3's (partial) selection sort.

    Parameters
    ----------
    ratio:
        The paper's ``r``: only the first ``r·n`` positions are ordered.
        The default 1.0 orders everything (what the evaluation uses).
    fast:
        Use the O(n log n) equivalent permutation; cost counters are
        then computed from the closed form instead of by counting.
    machine:
        When given, attach a single-thread :class:`SimResult` whose
        makespan prices the comparisons/swaps in work units — the
        procedure is sequential, so its virtual time is thread-count
        independent (Table 1's flat row).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    prefix = _prefix(max(n, 1), ratio) if n else 0
    if fast or n > 20_000:
        order = _fast_equivalent(degrees, prefix)
        comparisons = selection_comparison_count(n, ratio) if n else 0
        swaps = 0  # not tracked on the fast path
    else:
        order, comparisons, swaps = _faithful(degrees, prefix)

    stats = {"comparisons": float(comparisons)}
    if not fast and n <= 20_000:
        stats["swaps"] = float(swaps)

    sim: Optional[SimResult] = None
    if machine is not None:
        work = comparisons * costs.compare + stats.get("swaps", 0.0) * costs.swap
        sim = SimResult.sequential(work)
    # exact only over the ordered prefix; with ratio=1.0 fully exact
    exact = prefix == n
    return OrderingResult(
        method="selection",
        order=order,
        exact=exact,
        num_threads=1,
        sim=sim,
        stats=stats,
    )

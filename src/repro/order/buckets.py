"""Sequential bucket orderings: the approximate Eq. (1) binning and the
exact (max+1)-bucket counting order.

These are the single-threaded reference semantics that the parallel
procedures (ParBuckets, ParMax, MultiLists) must agree with:

* :func:`find_bin` — Eq. (1) of the paper: 101 bins between the minimum
  and maximum degree (100 widths, inclusive endpoints).
* :func:`approx_bucket_order` — assign every vertex by Eq. (1), then
  emit buckets from high to low.  Only *approximately* descending.
* :func:`exact_bucket_order` — one bucket per degree value (``max+1``
  buckets), §4.2's fix; exactly descending, ties in ascending vertex id.

Both are :func:`repro.sort.counting_argsort`, the stable bucket-list
counting sort, over the bins or the degrees.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..exceptions import OrderingError
from ..sort.counting import counting_argsort
from .base import OrderingResult

__all__ = [
    "find_bin",
    "find_bins",
    "approx_bucket_order",
    "exact_bucket_order",
    "bucket_fill_counts",
]


def find_bin(degree: int, max_degree: int, min_degree: int, num_bins: int = 100) -> int:
    """Eq. (1): ``floor(num_bins * (deg - min) / (max - min))`` ∈ [0, num_bins].

    The paper uses ``num_bins = 100`` "widths", giving 101 buckets.  When
    every vertex has the same degree (max == min) everything maps to bin
    ``num_bins`` (the single populated bucket).
    """
    if num_bins < 1:
        raise OrderingError(f"num_bins must be >= 1, got {num_bins}")
    if degree < min_degree or degree > max_degree:
        raise OrderingError(
            f"degree {degree} outside [{min_degree}, {max_degree}]"
        )
    if max_degree == min_degree:
        return num_bins
    return int(num_bins * (degree - min_degree) // (max_degree - min_degree))


def find_bins(
    degrees: np.ndarray, max_degree: int, min_degree: int, num_bins: int = 100
) -> np.ndarray:
    """Vectorised Eq. (1) over a degree array."""
    if num_bins < 1:
        raise OrderingError(f"num_bins must be >= 1, got {num_bins}")
    degrees = np.asarray(degrees, dtype=np.int64)
    if max_degree == min_degree:
        return np.full(degrees.shape, num_bins, dtype=np.int64)
    return (num_bins * (degrees - min_degree)) // (max_degree - min_degree)


def bucket_fill_counts(
    degrees: np.ndarray, num_bins: int = 100
) -> np.ndarray:
    """How many vertices land in each Eq. (1) bucket (contention study).

    For a power-law graph nearly everything piles into bucket 0 — the
    lock hot spot of §4.2 (Figure 3's observation applied to buckets).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size == 0:
        return np.zeros(num_bins + 1, dtype=np.int64)
    lo, hi = int(degrees.min()), int(degrees.max())
    bins = find_bins(degrees, hi, lo, num_bins)
    return np.bincount(bins, minlength=num_bins + 1).astype(np.int64)


def _emit_descending(buckets: List[List[int]]) -> np.ndarray:
    """Concatenate buckets from the highest index down (Algorithm 5
    lines 10–16 / Algorithm 6 lines 17–23)."""
    out: List[int] = []
    for b in range(len(buckets) - 1, -1, -1):
        out.extend(buckets[b])
    return np.asarray(out, dtype=np.int64)


def _one_degree_per_bin(degrees: np.ndarray, bins: np.ndarray) -> bool:
    """True when each Eq. (1) bin holds one degree, which makes the bin
    order exactly descending.  A bin is a function of the degree, so
    that holds iff there are as many bins in use as distinct degrees."""
    return np.unique(degrees).size == np.unique(bins).size


def approx_bucket_order(
    degrees: np.ndarray, *, num_bins: int = 100
) -> OrderingResult:
    """Sequential reference of ParBuckets' *approximate* ordering: the
    counting sort over the Eq. (1) bins, highest bin first."""
    degrees = np.asarray(degrees, dtype=np.int64)
    method = f"approx-buckets-{num_bins}"
    if degrees.size == 0:
        return OrderingResult(method, np.empty(0, dtype=np.int64), exact=False)
    bins = find_bins(degrees, int(degrees.max()), int(degrees.min()), num_bins)
    return OrderingResult(
        method=method,
        order=counting_argsort(bins, descending=True, max_key=num_bins),
        exact=_one_degree_per_bin(degrees, bins),
        stats={"num_bins": float(num_bins)},
    )


def exact_bucket_order(degrees: np.ndarray) -> OrderingResult:
    """Exact descending order via (max+1)-bucket counting sort (§4.2).

    O(n + max_degree); ties come out in ascending vertex id, matching
    what ParMax/MultiLists produce under their deterministic schedules.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    return OrderingResult(
        method="exact-buckets",
        order=counting_argsort(degrees, descending=True),
        exact=True,
        stats={"num_buckets": float(degrees.max() + 1)} if degrees.size else {},
    )

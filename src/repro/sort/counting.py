"""Sequential counting sort for bounded integer keys.

The sequential reference that the parallel MultiLists sort must agree
with: O(n + K) time for keys in ``[0, K)``, stable (equal keys keep
their input order), ascending or descending.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional

import numpy as np

from ..exceptions import ReproError

__all__ = ["counting_argsort", "counting_sort"]


def _check_keys(keys: np.ndarray, max_key: Optional[int]) -> int:
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ReproError("keys must be one-dimensional")
    if not np.issubdtype(keys.dtype, np.integer):
        raise ReproError(
            f"counting sort needs integer keys, got dtype {keys.dtype}"
        )
    if keys.size == 0:
        return 0
    lo = int(keys.min())
    if lo < 0:
        raise ReproError(f"keys must be non-negative, found {lo}")
    hi = int(keys.max())
    if max_key is not None:
        if hi > max_key:
            raise ReproError(f"key {hi} exceeds declared max_key {max_key}")
        hi = max_key
    return hi


def counting_argsort(
    keys: np.ndarray,
    *,
    descending: bool = False,
    max_key: Optional[int] = None,
) -> np.ndarray:
    """Stable permutation that sorts ``keys``: every index is appended
    to the bucket of its key, then the buckets are concatenated in key
    order.

    ``max_key`` (the "fixed range" bound) lets callers pre-declare the
    key ceiling so repeated sorts of same-range data skip the scan.
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    buckets: List[List[int]] = [[] for _ in range(_check_keys(keys, max_key) + 1)]
    for i, k in enumerate(keys.tolist()):
        buckets[k].append(i)
    if descending:
        buckets.reverse()
    return np.fromiter(chain.from_iterable(buckets), np.int64, keys.size)


def counting_sort(
    keys: np.ndarray,
    *,
    descending: bool = False,
    max_key: Optional[int] = None,
) -> np.ndarray:
    """Sorted copy of ``keys`` (stable order is only observable through
    :func:`counting_argsort`, but both share one code path)."""
    return np.asarray(keys, dtype=np.int64)[
        counting_argsort(keys, descending=descending, max_key=max_key)
    ]

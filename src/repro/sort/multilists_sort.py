"""General-purpose parallel sort for keys in a fixed range.

§4.3 of the paper: *"the proposed parallel MultiLists ordering algorithm
can be used in general parallel sorting problem when keys are in limited
ranges."*  This module delivers that claim as a standalone API,
decoupled from graphs and degrees:

* every thread distributes its block of items into a private array of
  ``K`` buckets, no locks (:func:`fill_buckets`);
* a prefix-sum over the per-thread bucket sizes assigns each
  ``(thread, key)`` bucket a disjoint slice of the output
  (:func:`order_positions`);
* buckets are copied out in parallel (:func:`scatter`).

The result is a *stable* sort: ties keep input order, because thread
blocks are contiguous, ascending, and drained in thread order.  The
three phases are also the engine of the degree ordering
:func:`repro.order.multilists_order`, which copies out one region per
low degree instead of one region in all.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..parallel import Backend, Schedule, parallel_for
from ..parallel.schedule import block_assignment
from .counting import _check_keys

__all__ = ["multilists_argsort", "multilists_sort"]


def fill_buckets(
    keys: np.ndarray, hi: int, num_threads: int, backend: "Backend | str"
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Phase 1: each thread puts its block of ids into private buckets.

    One task per thread id, lock-free.  Returns every thread's ids in
    bucket order (ascending key; stable, so ids ascend within a bucket)
    and the ``(T, hi+1)`` bucket sizes.
    """
    bucketed = block_assignment(keys.size, num_threads)
    sizes = np.zeros((num_threads, hi + 1), dtype=np.int64)

    def fill(t: int, _thread: int) -> None:
        block_keys = keys[bucketed[t]]
        sizes[t] = np.bincount(block_keys, minlength=hi + 1)
        bucketed[t] = bucketed[t][np.argsort(block_keys, kind="stable")]

    parallel_for(num_threads, fill, num_threads=num_threads,
                 schedule=Schedule.BLOCK, backend=backend)
    return bucketed, sizes


def order_positions(sizes: np.ndarray, *, descending: bool) -> np.ndarray:
    """Phase 2 setup: the ``orderPos`` prefix over the bucket sizes.

    The output holds the keys in the requested direction, and within
    one key thread 0's bucket precedes thread 1's, and so on.  Returned
    is ``orderPos[t][k]`` minus the start of bucket ``k`` in thread
    ``t``'s bucketed ids, so entry ``i`` of those ids, of key ``k``,
    goes to slot ``shift[t, k] + i``.
    """
    totals = sizes.sum(axis=0)
    ahead = np.cumsum(totals[::-1])[::-1] if descending else np.cumsum(totals)
    # orderPos is ahead - totals + cumsum(axis=0) - sizes, the bucket
    # starts at cumsum(axis=1) - sizes in its thread's ids: sizes cancel
    return ahead - totals + np.cumsum(sizes, axis=0) - np.cumsum(sizes, axis=1)


def scatter(out: np.ndarray, ids: np.ndarray, keys: np.ndarray,
            shift: np.ndarray, start: int = 0, stop: Optional[int] = None
            ) -> None:
    """Copy ``ids[start:stop]``, a stretch of one thread's bucketed ids,
    to their slots of ``out`` (``shift``: that thread's row).  A stretch
    within one bucket is one slice."""
    part = ids[start:stop]
    if not part.size:
        return
    key = keys[part[0]]
    if key == keys[part[-1]]:
        begin = shift[key] + start
        out[begin:begin + part.size] = part
    else:
        out[shift[keys[part]] + np.arange(start, start + part.size)] = part


def multilists_argsort(
    keys: np.ndarray,
    *,
    descending: bool = False,
    num_threads: int = 1,
    max_key: Optional[int] = None,
    backend: "Backend | str" = Backend.THREADS,
) -> np.ndarray:
    """Stable argsort of bounded non-negative integer keys, in parallel.

    Semantics are identical to
    :func:`repro.sort.counting.counting_argsort`; only the execution
    strategy differs: the MultiLists fill, the ``orderPos`` prefix and
    one parallel copy-out region.
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    hi = _check_keys(keys, max_key)
    keys = keys.astype(np.int64, copy=False)
    T = max(1, num_threads)
    bucketed, sizes = fill_buckets(keys, hi, T, backend)
    shift = order_positions(sizes, descending=descending)
    out = np.empty(keys.size, dtype=np.int64)
    parallel_for(T, lambda t, _thread: scatter(out, bucketed[t], keys, shift[t]),
                 num_threads=T, schedule=Schedule.BLOCK, backend=backend)
    return out


def multilists_sort(
    keys: np.ndarray,
    *,
    descending: bool = False,
    num_threads: int = 1,
    max_key: Optional[int] = None,
    backend: "Backend | str" = Backend.THREADS,
) -> np.ndarray:
    """Sorted copy of ``keys`` via :func:`multilists_argsort`."""
    return np.asarray(keys, dtype=np.int64)[
        multilists_argsort(
            keys,
            descending=descending,
            num_threads=num_threads,
            max_key=max_key,
            backend=backend,
        )
    ]

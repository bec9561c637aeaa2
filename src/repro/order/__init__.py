"""Degree-ordering procedures (paper §2.2 and §4).

From slow-and-sequential to fast-and-parallel:

========== ========= ========== =============================
procedure  exact?    parallel?  paper reference
========== ========= ========== =============================
selection  yes       no         Algorithm 3 (Peng et al.)
parbuckets approx    yes        Algorithm 5 (ParBuckets)
parmax     yes       partly     Algorithm 6 (ParMax)
multilists yes       yes        Algorithm 7 (MultiLists)
========== ========= ========== =============================

Sequential references ``approx-buckets`` / ``exact-buckets`` pin down
the semantics the parallel procedures must match; both are
:func:`repro.sort.counting_argsort`, and MultiLists runs on
:mod:`repro.sort`'s MultiLists engine.
"""

from .base import (
    DEFAULT_COSTS,
    OrderingCosts,
    OrderingResult,
    check_descending,
    check_ordering,
    is_permutation,
)
from .buckets import (
    approx_bucket_order,
    bucket_fill_counts,
    exact_bucket_order,
    find_bin,
    find_bins,
)
from .multilists import DEFAULT_PAR_RATIO, multilists_order, simulate_multilists
from .orderings import ORDERINGS, compute_order, ordering_names, simulate_order
from .par_buckets import par_buckets_order, simulate_par_buckets
from .par_max import DEFAULT_THRESHOLD, par_max_order, simulate_par_max
from .selection import selection_comparison_count, selection_order

__all__ = [
    "DEFAULT_COSTS",
    "OrderingCosts",
    "OrderingResult",
    "check_descending",
    "check_ordering",
    "is_permutation",
    "approx_bucket_order",
    "bucket_fill_counts",
    "exact_bucket_order",
    "find_bin",
    "find_bins",
    "DEFAULT_PAR_RATIO",
    "multilists_order",
    "simulate_multilists",
    "ORDERINGS",
    "compute_order",
    "ordering_names",
    "simulate_order",
    "par_buckets_order",
    "simulate_par_buckets",
    "DEFAULT_THRESHOLD",
    "par_max_order",
    "simulate_par_max",
    "selection_comparison_count",
    "selection_order",
]

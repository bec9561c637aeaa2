"""General-purpose bounded-key sorting (the paper's §4.3 side claim).

:func:`multilists_argsort` / :func:`multilists_sort` are the parallel
fixed-range sort derived from the MultiLists ordering procedure;
:func:`counting_argsort` / :func:`counting_sort` are the sequential
reference they must agree with bit for bit.  The degree orderings of
:mod:`repro.order` run on both; this package imports nothing from it.
"""

from .checks import check_sorted, check_stable_argsort
from .counting import counting_argsort, counting_sort
from .multilists_sort import multilists_argsort, multilists_sort

__all__ = [
    "check_sorted",
    "check_stable_argsort",
    "counting_argsort",
    "counting_sort",
    "multilists_argsort",
    "multilists_sort",
]

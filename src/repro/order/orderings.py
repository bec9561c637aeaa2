"""Name-based dispatch over the ordering procedures.

The APSP runner and the benchmark harness refer to orderings by string;
this module is the single place that maps names to implementations —
both the *real* execution path and the *simulated* one.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import OrderingError
from ..parallel import Backend
from ..simx.machine import MachineSpec
from ..simx.trace import SimResult
from .base import OrderingResult
from .buckets import approx_bucket_order, exact_bucket_order
from .multilists import multilists_order, simulate_multilists
from .par_buckets import par_buckets_order, simulate_par_buckets
from .par_max import par_max_order, simulate_par_max
from .selection import selection_order

__all__ = ["ORDERINGS", "ordering_names", "compute_order", "simulate_order"]

#: canonical names of all ordering procedures
ORDERINGS: Tuple[str, ...] = (
    "none",
    "selection",
    "approx-buckets",
    "exact-buckets",
    "parbuckets",
    "parmax",
    "multilists",
)


def ordering_names() -> Tuple[str, ...]:
    return ORDERINGS


def _identity(n: int) -> OrderingResult:
    return OrderingResult(
        method="none", order=np.arange(n, dtype=np.int64), exact=False
    )


def compute_order(
    name: str,
    degrees: np.ndarray,
    *,
    num_threads: int = 1,
    backend: "Backend | str" = Backend.SERIAL,
    **kwargs,
) -> OrderingResult:
    """Run the named ordering procedure for real.

    ``"none"`` returns the identity order — what the *basic* algorithm
    (Algorithm 2 / ParAlg1) uses.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    if name == "none":
        return _identity(n)
    if name == "selection":
        return selection_order(degrees, **kwargs)
    if name == "approx-buckets":
        return approx_bucket_order(degrees, **kwargs)
    if name == "exact-buckets":
        return exact_bucket_order(degrees, **kwargs)
    if name == "parbuckets":
        return par_buckets_order(
            degrees, num_threads=num_threads, backend=backend, **kwargs
        )
    if name == "parmax":
        return par_max_order(
            degrees, num_threads=num_threads, backend=backend, **kwargs
        )
    if name == "multilists":
        return multilists_order(
            degrees, num_threads=num_threads, backend=backend, **kwargs
        )
    raise OrderingError(
        f"unknown ordering {name!r}; known: {', '.join(ORDERINGS)}"
    )


def simulate_order(
    name: str,
    degrees: np.ndarray,
    machine: MachineSpec,
    *,
    num_threads: int = 1,
    trace: bool = False,
    **kwargs,
) -> OrderingResult:
    """Run the named ordering on the simulated machine.

    Sequential procedures (``selection``) report a thread-independent
    virtual time; ``none`` costs nothing.  ``trace=True`` makes the
    parallel procedures record per-event timelines (lock waits carry
    the procedure's own lock names) for the unified tracing layer.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    if name == "none":
        result = _identity(n)
        result.sim = SimResult.sequential(0.0)
        return result
    if name == "selection":
        return selection_order(degrees, machine=machine, **kwargs)
    if name == "parbuckets":
        return simulate_par_buckets(
            degrees, machine, num_threads=num_threads, trace=trace, **kwargs
        )
    if name == "parmax":
        return simulate_par_max(
            degrees, machine, num_threads=num_threads, trace=trace, **kwargs
        )
    if name == "multilists":
        return simulate_multilists(
            degrees, machine, num_threads=num_threads, trace=trace, **kwargs
        )
    raise OrderingError(
        f"ordering {name!r} has no simulated variant "
        "(sequential bucket references are priced through their parallel "
        "counterparts)"
    )

"""OpenMP-like shared-memory parallel runtime substrate.

Public surface:

* :func:`parallel_for` / :func:`parallel_map` — the loop entry points.
* :class:`~repro.types.Schedule` / :class:`~repro.types.Backend` — policy
  enums (re-exported here for convenience).
* :class:`LockArray` — per-bucket locks for the ordering procedures.
* Scheduling math: :func:`block_assignment`,
  :func:`static_cyclic_assignment`, :class:`DynamicCounter`.
"""

from ..types import Backend, Schedule
from .api import parallel_for, parallel_map
from .locks import CountingLock, LockArray
from .schedule import (
    DynamicCounter,
    block_assignment,
    static_assignment,
    static_cyclic_assignment,
)
from .backends.process import SharedArray, fork_available

__all__ = [
    "Backend",
    "Schedule",
    "parallel_for",
    "parallel_map",
    "CountingLock",
    "LockArray",
    "DynamicCounter",
    "block_assignment",
    "static_assignment",
    "static_cyclic_assignment",
    "SharedArray",
    "fork_available",
]

"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` from misuse of the Python API itself)
propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "DatasetError",
    "OrderingError",
    "ScheduleError",
    "BackendError",
    "SimulationError",
    "AlgorithmError",
    "NegativeWeightError",
    "NegativeCycleError",
    "ConfigError",
    "ValidationError",
    "BenchmarkError",
    "FaultPlanError",
    "FaultInjected",
    "StoreError",
    "StoreCorruptionError",
    "ServeError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class GraphError(ReproError):
    """Invalid graph structure or graph construction failure."""


class GraphFormatError(GraphError):
    """Malformed on-disk graph data (edge lists, headers)."""


class DatasetError(ReproError):
    """Unknown dataset name or unsatisfiable dataset request."""


class OrderingError(ReproError):
    """An ordering procedure produced or received invalid data."""


class ScheduleError(ReproError):
    """Unknown or invalid loop-scheduling specification."""


class BackendError(ReproError):
    """Unknown or unusable parallel execution backend."""


class SimulationError(ReproError):
    """Inconsistent state inside the discrete-event machine simulator."""


class AlgorithmError(ReproError):
    """An APSP algorithm was invoked with invalid inputs."""


class NegativeWeightError(AlgorithmError):
    """A graph with negative arc weights was given to a solver that
    requires non-negative weights.

    Raised at dispatch time (not construction: a graph built with
    ``allow_negative=True`` is a perfectly valid graph) so the message
    can point at the solvers whose :class:`repro.core.SolverSpec`
    declares ``negative_weights=True`` — currently Johnson's algorithm.
    """


class NegativeCycleError(AlgorithmError):
    """The graph contains a cycle of negative total weight.

    Shortest-path distances are undefined on such graphs (any walk can
    be shortened forever by another lap), so Johnson's Bellman–Ford
    phase detects the condition and raises instead of returning
    garbage.  Carries a witness vertex known to be on or reachable from
    the cycle when one is available.
    """

    def __init__(
        self, message: str, *, witness: "int | None" = None
    ) -> None:
        super().__init__(message)
        self.witness = witness


class ConfigError(AlgorithmError, ScheduleError, BackendError):
    """Invalid user-supplied solver configuration.

    Every *user-input* validation failure of :func:`repro.solve_apsp`
    and the other entry points — whether the knobs arrived as keyword
    arguments or from a config file — raises this, with the offending
    field named as ``<group>.<field>`` (e.g. ``algorithm.ratio``).  The
    validation itself lives in the :mod:`repro.config` records.

    It deliberately subclasses the legacy validation classes
    (:class:`AlgorithmError`, :class:`ScheduleError`,
    :class:`BackendError`) so pre-existing ``except`` clauses keep
    working; *runtime* failures (a worker death, a simulator
    inconsistency) stay on the original hierarchy.
    """

    def __init__(self, message: str, *, field: "str | None" = None) -> None:
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class ValidationError(ReproError):
    """A result failed validation against a reference solution."""


class BenchmarkError(ReproError):
    """A benchmark experiment specification is invalid or failed to run."""


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed or unsatisfiable."""


class FaultInjected(ReproError):
    """An error deliberately raised by an armed :class:`repro.faults.FaultSpec`.

    Execution layers treat it like a worker death (recoverable under
    ``on_worker_death="retry"``) rather than an application bug.
    """


class StoreError(ReproError):
    """A :class:`repro.serve.DistStore` is malformed or misused."""


class StoreCorruptionError(StoreError):
    """A distance-store shard failed its checksum on load.

    Carries the ids of the shards that failed so a caller can repair
    exactly those (:meth:`repro.serve.DistStore.repair`).
    """

    def __init__(self, message: str, *, shards: "tuple | None" = None) -> None:
        super().__init__(message)
        self.shards = tuple(shards or ())


class ServeError(ReproError):
    """Invalid request or state in the query-serving layer."""

"""Declarative solver registry.

Every APSP algorithm the library can run is described by one
:class:`SolverSpec`: its pipeline defaults (ordering, schedule), its
capability flag (can it take negative weights?) and the callables
that actually solve.  :class:`repro.config.SolverConfig` validates
against the spec, :func:`repro.core.solve_apsp`
dispatches through ``spec.solve``, and the exact-row paths
(:func:`repro.core.solve_apsp_shards`, :func:`repro.core.solve_apsp_rows`
and the cluster build) take their graph and row post-processing from
``spec.shard_hooks`` — so registering a solver here is the *only* step
needed to expose it through the config layer, the CLI
(``repro-apsp solve --algorithm <name>``), the smoke/bench harness and
the distance-store builder.

The five paper algorithms (``seq-basic`` … ``parapsp``) are registered
by :mod:`repro.core.runner` as one *sweep family* sharing a solve
callable; ``johnson`` registers itself from its own module.  Names are
canonicalised so ``seq_basic`` and ``seq-basic`` address the same
spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..exceptions import ConfigError
from ..types import Schedule

__all__ = [
    "SolverSpec",
    "ShardHooks",
    "register_solver",
    "get_solver",
    "solver_names",
    "canonical_solver_name",
]


@dataclass
class ShardHooks:
    """How one solver produces exact rows outside :func:`solve_apsp`.

    Store shards, repairs, update re-solves and the cluster build all
    take their rows from flagless sweeps of ``graph`` (Johnson
    substitutes its reweighted graph), one independent row per source.
    The optional ``finalize(sources, block)`` post-processes the
    ``(len(sources), n)`` block of those sources' rows in place
    (Johnson un-reweights there).
    """

    graph: object
    finalize: Optional[Callable[[object, object], None]] = None


@dataclass(frozen=True)
class SolverSpec:
    """Declarative description of one registered APSP solver.

    The first five fields are the pipeline defaults that the CLI info
    table and the config cross-checks read.  ``parallel`` and
    ``negative_weights`` are what requests are validated against; the
    callables are what the runner dispatches to.
    """

    name: str
    ordering: str
    schedule: Schedule
    parallel: bool
    description: str
    #: accepts graphs with strictly negative arc weights
    negative_weights: bool = False
    #: ``solve(graph, cfg, spec) -> APSPResult``
    solve: Optional[Callable] = field(default=None, compare=False, repr=False)
    #: ``shard_hooks(graph, cfg) -> ShardHooks``, how the solver's
    #: exact rows are produced for stores and the cluster build
    shard_hooks: Optional[Callable] = field(
        default=None, compare=False, repr=False
    )

    def capabilities(self) -> Dict[str, bool]:
        """The capability flags as a plain dict (docs / CLI tables)."""
        return {"negative_weights": self.negative_weights}


#: the registry itself; :data:`repro.core.runner.ALGORITHMS` is this
#: very dict, kept importable under its historical name
_REGISTRY: Dict[str, SolverSpec] = {}


def canonical_solver_name(name: object) -> str:
    """Normalise a user-supplied solver name (``seq_basic`` →
    ``seq-basic``)."""
    return str(name).strip().lower().replace("_", "-")


def register_solver(spec: SolverSpec, *, replace: bool = False) -> SolverSpec:
    """Add ``spec`` to the registry under its canonical name.

    Re-registering an existing name is an error unless ``replace=True``
    (tests swapping in instrumented solvers use that).  Returns the spec
    for decorator-ish chaining.
    """
    if not isinstance(spec, SolverSpec):
        raise TypeError(
            f"register_solver expects a SolverSpec, got {type(spec).__name__}"
        )
    key = canonical_solver_name(spec.name)
    if key != spec.name:
        raise ConfigError(
            f"solver name {spec.name!r} is not canonical; register it "
            f"as {key!r}",
            field="algorithm.name",
        )
    for hook in ("solve", "shard_hooks"):
        if getattr(spec, hook) is None:
            raise ConfigError(
                f"solver {key!r} has no {hook} callable",
                field="algorithm.name",
            )
    if key in _REGISTRY and not replace:
        raise ConfigError(
            f"solver {key!r} is already registered "
            "(pass replace=True to override)",
            field="algorithm.name",
        )
    _REGISTRY[key] = spec
    return spec


def get_solver(name: object) -> SolverSpec:
    """Look up a solver by (canonicalised) name.

    Raises :class:`~repro.exceptions.ConfigError` naming the
    ``algorithm.name`` field and listing the registered solvers.
    """
    key = canonical_solver_name(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(
            f"unknown algorithm {name!r}; registered solvers: {known}",
            field="algorithm.name",
        ) from None


def solver_names() -> Tuple[str, ...]:
    """All registered solver names, in registration order."""
    return tuple(_REGISTRY)

"""Validated, serializable configuration records.

Every entry point of the library (:func:`repro.solve_apsp`,
:func:`repro.serve.solve_to_store`, :class:`repro.serve.QueryEngine`,
...) takes flat keyword arguments.  The records here group those knobs
— following the GraphIt/PriorityGraph separation of *algorithm* from
*schedule* (Zhang et al., arXiv:1911.07260) — into frozen objects, so a
whole run is reproducible from one JSON file, store manifest or BENCH
artifact::

    cfg = SolverConfig.from_kwargs(ratio=0.9, backend="sim", num_threads=16)
    with open("run.json", "w") as fh:
        fh.write(cfg.to_json())                   # …and later:
    result = solve_apsp(graph, **load_config("run.json").to_kwargs())

:meth:`~SolverConfig.from_kwargs` and :meth:`~SolverConfig.to_kwargs`
are inverses over :data:`KWARG_MAP`; only the file boundary (the CLI's
``--config`` and the store-manifest readers) converts between the two.
:class:`SolverConfig` groups mirror the subsystems that own the knobs:

=============== ====================================================
group           knobs
=============== ====================================================
``algorithm``   name, ordering, schedule, queue, ratio, degree_kind,
                use_flags
``parallel``    backend, num_threads, chunk, machine
``faults``      plan, on_worker_death, timeout, max_retries
``obs``         trace, cost_model
=============== ====================================================

:class:`ServeConfig` does the same for the serving stack, over
:data:`SERVE_KWARG_MAP`.  Validation happens once, in each group's
``__post_init__``, and raises :class:`~repro.exceptions.ConfigError`
naming the offending field (``"algorithm.ratio"``).  ``to_dict`` /
``from_dict`` round-trip exactly (asserted by hypothesis property
tests).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .core.costs import DEFAULT_COST_MODEL, DijkstraCostModel
from .exceptions import ConfigError, FaultPlanError, ReproError
from .faults.plan import FaultPlan
from .graphs.degree import DegreeKind
from .simx.machine import MachineSpec
from .types import Backend, Schedule

__all__ = [
    "AlgorithmConfig",
    "ParallelConfig",
    "FaultConfig",
    "ObsConfig",
    "SolverConfig",
    "StoreConfig",
    "EngineConfig",
    "ServeConfig",
    "load_config",
    "load_serve_config",
]

#: queue disciplines of :func:`repro.core.modified_dijkstra_sssp`
QUEUE_DISCIPLINES: Tuple[str, ...] = ("fifo", "heap")

#: recovery policies of :func:`repro.parallel.parallel_for`
DEATH_POLICIES: Tuple[str, ...] = ("retry", "raise")


def _fail(field_name: str, message: str) -> None:
    raise ConfigError(message, field=field_name)


class _Group:
    """Plain-dict round trip shared by every config group."""

    #: the group's key in its bundle; names its ConfigError fields
    _name = ""
    #: fields holding a nested record: name -> (encode, decode)
    _nested: Mapping[str, Tuple[Callable, Callable]] = {}

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        for fname, (encode, _) in self._nested.items():
            value = getattr(self, fname)
            data[fname] = None if value is None else encode(value)
        return data

    @classmethod
    def from_dict(cls, data: Any):
        if isinstance(data, cls):
            return data
        if not isinstance(data, Mapping):
            _fail(cls._name, f"must be a mapping, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            _fail(cls._name, f"unknown field(s): {sorted(unknown)}")
        data = dict(data)
        for fname, (_, decode) in cls._nested.items():
            if isinstance(data.get(fname), Mapping):
                try:
                    data[fname] = decode(data[fname])
                except (TypeError, ReproError) as exc:
                    _fail(f"{cls._name}.{fname}", str(exc))
        return cls(**data)


@dataclass(frozen=True)
class AlgorithmConfig(_Group):
    """What to solve and in which order (the *algorithm* of the run)."""

    _name = "algorithm"

    name: str = "parapsp"
    #: ordering procedure override (``None`` = the algorithm's default)
    ordering: Optional[str] = None
    #: sweep schedule override (``None`` = the algorithm's default)
    schedule: Optional[str] = None
    queue: str = "fifo"
    #: Algorithm 3 selection ratio, in (0, 1]
    ratio: float = 1.0
    degree_kind: str = "out"
    use_flags: bool = True

    def __post_init__(self) -> None:
        from .core import runner as _runner  # noqa: F401  (registration)
        from .core.registry import canonical_solver_name, get_solver
        from .order import ORDERINGS

        object.__setattr__(self, "name", canonical_solver_name(self.name))
        get_solver(self.name)  # raises ConfigError listing known solvers
        if self.ordering is not None and self.ordering not in ORDERINGS:
            _fail(
                "algorithm.ordering",
                f"unknown ordering {self.ordering!r}; known: "
                f"{', '.join(ORDERINGS)}",
            )
        if self.schedule is not None:
            try:
                normalized = Schedule.coerce(self.schedule).value
            except ReproError as exc:
                _fail("algorithm.schedule", str(exc))
            object.__setattr__(self, "schedule", normalized)
        if self.queue not in QUEUE_DISCIPLINES:
            _fail(
                "algorithm.queue",
                f"unknown queue discipline {self.queue!r}; expected one "
                f"of {QUEUE_DISCIPLINES}",
            )
        if not isinstance(self.ratio, (int, float)) or isinstance(
            self.ratio, bool
        ) or not 0.0 < float(self.ratio) <= 1.0:
            _fail(
                "algorithm.ratio",
                f"ratio must be in (0, 1], got {self.ratio!r}",
            )
        object.__setattr__(self, "ratio", float(self.ratio))
        try:
            kind = DegreeKind.coerce(self.degree_kind).value
        except ReproError as exc:
            _fail("algorithm.degree_kind", str(exc))
        object.__setattr__(self, "degree_kind", kind)
        if not isinstance(self.use_flags, bool):
            _fail(
                "algorithm.use_flags",
                f"use_flags must be a bool, got {self.use_flags!r}",
            )


@dataclass(frozen=True)
class ParallelConfig(_Group):
    """Where and how wide the run executes."""

    _name = "parallel"
    _nested = {"machine": (dataclasses.asdict, lambda d: MachineSpec(**d))}

    backend: str = "serial"
    num_threads: int = 1
    #: dynamic-schedule chunk size (iterations per claim)
    chunk: int = 1
    #: simulated machine for the SIM backend (``None`` = paper default)
    machine: Optional[MachineSpec] = None

    def __post_init__(self) -> None:
        try:
            value = Backend.coerce(self.backend).value
        except ReproError as exc:
            _fail("parallel.backend", str(exc))
        object.__setattr__(self, "backend", value)
        if not isinstance(self.num_threads, int) or isinstance(
            self.num_threads, bool
        ) or self.num_threads < 1:
            _fail(
                "parallel.num_threads",
                f"num_threads must be an int >= 1, got {self.num_threads!r}",
            )
        if not isinstance(self.chunk, int) or isinstance(self.chunk, bool) \
                or self.chunk < 1:
            _fail(
                "parallel.chunk",
                f"chunk must be >= 1, got {self.chunk!r} (a non-positive "
                "chunk would make dynamic workers spin forever)",
            )
        if self.machine is not None and not isinstance(
            self.machine, MachineSpec
        ):
            _fail(
                "parallel.machine",
                f"machine must be a MachineSpec or None, "
                f"got {type(self.machine).__name__}",
            )


@dataclass(frozen=True)
class FaultConfig(_Group):
    """Fault injection and crash-recovery policy (:mod:`repro.faults`)."""

    _name = "faults"
    _nested = {"plan": (FaultPlan.to_dict, FaultPlan.from_dict)}

    plan: Optional[FaultPlan] = None
    on_worker_death: str = "raise"
    #: wall-second bound per process round (``None`` = unbounded)
    timeout: Optional[float] = None
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.plan is not None:
            if not isinstance(self.plan, FaultPlan):
                _fail(
                    "faults.plan",
                    f"plan must be a FaultPlan or None, "
                    f"got {type(self.plan).__name__}",
                )
            try:
                self.plan.validate()
            except FaultPlanError as exc:
                _fail("faults.plan", str(exc))
        if self.on_worker_death not in DEATH_POLICIES:
            _fail(
                "faults.on_worker_death",
                f"on_worker_death must be one of {DEATH_POLICIES}, "
                f"got {self.on_worker_death!r}",
            )
        if self.timeout is not None:
            if not isinstance(self.timeout, (int, float)) or isinstance(
                self.timeout, bool
            ) or not float(self.timeout) > 0:
                _fail(
                    "faults.timeout",
                    f"timeout must be a positive number or None, "
                    f"got {self.timeout!r}",
                )
            object.__setattr__(self, "timeout", float(self.timeout))
        if not isinstance(self.max_retries, int) or isinstance(
            self.max_retries, bool
        ) or self.max_retries < 0:
            _fail(
                "faults.max_retries",
                f"max_retries must be an int >= 0, got {self.max_retries!r}",
            )


@dataclass(frozen=True)
class ObsConfig(_Group):
    """Measurement knobs: tracing and the virtual cost model."""

    _name = "obs"
    _nested = {
        "cost_model": (dataclasses.asdict, lambda d: DijkstraCostModel(**d))
    }

    trace: bool = False
    cost_model: DijkstraCostModel = DEFAULT_COST_MODEL

    def __post_init__(self) -> None:
        if not isinstance(self.trace, bool):
            _fail("obs.trace", f"trace must be a bool, got {self.trace!r}")
        if not isinstance(self.cost_model, DijkstraCostModel):
            _fail(
                "obs.cost_model",
                f"cost_model must be a DijkstraCostModel, "
                f"got {type(self.cost_model).__name__}",
            )


@dataclass(frozen=True)
class StoreConfig(_Group):
    """Store-side knobs of :func:`repro.serve.solve_to_store`.

    Deliberately *not* a :class:`SolverConfig` group: it shapes the
    on-disk layout (shard geometry, codec, landmark count) and the
    serving contract (``epsilon``), not the solve itself, so the same
    SolverConfig can feed stores of different codecs.  Field for field
    the store keywords of ``solve_to_store``:
    ``solve_to_store(graph, path, **cfg.to_dict())``.
    """

    _name = "store"

    #: shard codec name; see :func:`repro.serve.codecs.codec_names`
    codec: str = "raw"
    shard_rows: int = 256
    #: top-degree rows pinned (raw f8) for ALT bounds / degraded mode
    num_landmarks: int = 8
    #: recommended short-circuit gap for the query engine: answer point
    #: queries from landmark bounds alone when ``hi - lo <= epsilon``
    #: (``None`` = disabled, ``0.0`` = only when the bounds coincide)
    epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        from .serve.codecs import codec_names

        known = codec_names()
        if self.codec not in known:
            _fail(
                "store.codec",
                f"unknown shard codec {self.codec!r}; known: "
                f"{', '.join(known)}",
            )
        if not isinstance(self.shard_rows, int) or isinstance(
            self.shard_rows, bool
        ) or self.shard_rows < 1:
            _fail(
                "store.shard_rows",
                f"shard_rows must be an int >= 1, got {self.shard_rows!r}",
            )
        if not isinstance(self.num_landmarks, int) or isinstance(
            self.num_landmarks, bool
        ) or self.num_landmarks < 0:
            _fail(
                "store.num_landmarks",
                f"num_landmarks must be an int >= 0, "
                f"got {self.num_landmarks!r}",
            )
        eps = self.epsilon
        if eps is not None:
            if not isinstance(eps, (int, float)) or isinstance(eps, bool) \
                    or not float(eps) >= 0 or float(eps) == float("inf"):
                _fail(
                    "store.epsilon",
                    f"epsilon must be a finite number >= 0 or None, "
                    f"got {eps!r}",
                )
            object.__setattr__(self, "epsilon", float(eps))


class _Bundle:
    """Plumbing shared by :class:`SolverConfig` and :class:`ServeConfig`:
    a frozen record of groups, the flat-keyword map onto its fields, and
    the JSON file format."""

    #: group key -> group type, in serialization order
    _groups: Mapping[str, type] = {}
    #: flat keyword -> (group key, field name)
    _kwargs: Mapping[str, Tuple[str, str]] = {}
    #: ConfigError field of bundle-level problems
    _name = ""
    #: what the flat keywords are called in error messages
    _keywords = ""
    #: keys earlier versions wrote that no longer mean anything, as
    #: ``"group"`` or ``"group.field"``: dropped on load whatever their
    #: value, so old config files and store manifests still load
    _retired: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name, kind in self._groups.items():
            value = getattr(self, name)
            if isinstance(value, Mapping):  # tolerate nested plain dicts
                object.__setattr__(self, name, kind.from_dict(value))
            elif not isinstance(value, kind):
                _fail(
                    name,
                    f"must be a {kind.__name__} (or a mapping), "
                    f"got {type(value).__name__}",
                )

    # -- flat keywords ---------------------------------------------------
    @classmethod
    def from_kwargs(cls, **kwargs: Any):
        """Build a config from flat keywords; defaults fill the rest."""
        return cls().with_overrides(**kwargs)

    def with_overrides(self, **kwargs: Any):
        """Copy with some flat keywords replaced (and re-validated)."""
        patches: Dict[str, Dict[str, Any]] = {}
        for key, value in kwargs.items():
            target = self._kwargs.get(key)
            if target is None:
                _fail(
                    key,
                    f"unknown {self._keywords} keyword {key!r}; known: "
                    f"{', '.join(sorted(self._kwargs))}",
                )
            group, fname = target
            patches.setdefault(group, {})[fname] = value
        replaced = {
            group: dataclasses.replace(getattr(self, group), **fields)
            for group, fields in patches.items()
        }
        return dataclasses.replace(self, **replaced)

    def to_kwargs(self) -> Dict[str, Any]:
        """Every flat keyword's value; inverse of :meth:`from_kwargs`."""
        return {
            key: getattr(getattr(self, group), fname)
            for key, (group, fname) in self._kwargs.items()
        }

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-JSON dict; inverse of :meth:`from_dict`."""
        return {group: getattr(self, group).to_dict() for group in self._groups}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        if not isinstance(data, Mapping):
            _fail(cls._name, f"must be a mapping, got {type(data).__name__}")
        data = dict(data)
        for key in cls._retired:
            group, _, fname = key.partition(".")
            if not fname:
                data.pop(group, None)
            elif isinstance(data.get(group), Mapping):
                data[group] = {k: v for k, v in data[group].items()
                               if k != fname}
        unknown = set(data) - set(cls._groups)
        if unknown:
            _fail(cls._name, f"unknown group(s): {sorted(unknown)}")
        return cls(
            **{
                name: kind() if data.get(name) is None
                else kind.from_dict(data[name])
                for name, kind in cls._groups.items()
            }
        )

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            _fail(cls._name, f"bad config JSON: {exc}")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str):
        """Read a config from a JSON file."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            _fail(cls._name, f"cannot read {path!r}: {exc}")
        return cls.from_json(text)


#: flat ``solve_apsp`` keyword → (group attribute, field name)
KWARG_MAP: Dict[str, Tuple[str, str]] = {
    "algorithm": ("algorithm", "name"),
    "ordering": ("algorithm", "ordering"),
    "schedule": ("algorithm", "schedule"),
    "queue": ("algorithm", "queue"),
    "ratio": ("algorithm", "ratio"),
    "degree_kind": ("algorithm", "degree_kind"),
    "use_flags": ("algorithm", "use_flags"),
    "backend": ("parallel", "backend"),
    "num_threads": ("parallel", "num_threads"),
    "chunk": ("parallel", "chunk"),
    "machine": ("parallel", "machine"),
    "fault_plan": ("faults", "plan"),
    "on_worker_death": ("faults", "on_worker_death"),
    "timeout": ("faults", "timeout"),
    "max_retries": ("faults", "max_retries"),
    "trace": ("obs", "trace"),
    "cost_model": ("obs", "cost_model"),
}


@dataclass(frozen=True)
class SolverConfig(_Bundle):
    """One complete, validated, serializable ``solve_apsp`` setup."""

    _groups = {
        "algorithm": AlgorithmConfig,
        "parallel": ParallelConfig,
        "faults": FaultConfig,
        "obs": ObsConfig,
    }
    _kwargs = KWARG_MAP
    _name = "config"
    _keywords = "solve_apsp"
    # the Δ-stepping bucket width and the batching knobs
    _retired = ("algorithm.delta", "batch")

    algorithm: AlgorithmConfig = field(default_factory=AlgorithmConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        super().__post_init__()
        # cross-group checks: the request must fit the chosen solver's
        # capability flags (see repro.core.registry.SolverSpec)
        from .core.registry import get_solver

        spec = get_solver(self.algorithm.name)
        backend = Backend(self.parallel.backend)
        if not spec.parallel and backend in (
            Backend.THREADS,
            Backend.PROCESS,
        ):
            _fail(
                "parallel.backend",
                f"{self.algorithm.name} is a sequential algorithm; use "
                "backend='serial' (or 'sim' for a virtual-time estimate "
                "at 1 thread)",
            )


def load_config(path: str) -> SolverConfig:
    """Read a :class:`SolverConfig` from a JSON file."""
    return SolverConfig.load(path)


# ---------------------------------------------------------------------------
# ServeConfig — the file format of the serving CLI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineConfig(_Group):
    """Query-engine knobs of the serving stack: the LRU shard-cache size
    (the lever that trades memory for latency on the read path) and
    whether shard loads are checksummed."""

    _name = "engine"

    cache_shards: int = 4
    verify_loads: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.cache_shards, int) or isinstance(
            self.cache_shards, bool
        ) or self.cache_shards < 1:
            _fail(
                "engine.cache_shards",
                f"cache_shards must be an int >= 1, "
                f"got {self.cache_shards!r}",
            )
        if not isinstance(self.verify_loads, bool):
            _fail(
                "engine.verify_loads",
                f"verify_loads must be a bool, got {self.verify_loads!r}",
            )


#: flat serving keyword → (ServeConfig group, field name); the serve
#: counterpart of :data:`KWARG_MAP`
SERVE_KWARG_MAP: Dict[str, Tuple[str, str]] = {
    "codec": ("store", "codec"),
    "shard_rows": ("store", "shard_rows"),
    "num_landmarks": ("store", "num_landmarks"),
    "epsilon": ("store", "epsilon"),
    "cache_shards": ("engine", "cache_shards"),
    "verify_loads": ("engine", "verify_loads"),
}


@dataclass(frozen=True)
class ServeConfig(_Bundle):
    """The serving stack's file format: the knobs its readers read.

    The serving counterpart of :class:`SolverConfig`, read by
    ``repro-apsp store``/``query``/``serve-bench --config``: the store
    layout (``store``) and the query engine (``engine``).  The serving
    entry points themselves take flat keywords, so the CLI hands them
    one group each — ``solve_to_store(graph, path,
    **cfg.store.to_dict())``, ``QueryEngine(store,
    cache_shards=cfg.engine.cache_shards, ...)``.  Every other serving
    knob (admission budgets, replay costs, telemetry, updates, routing)
    is a keyword of the runtime object that uses it, and is checked
    there.
    """

    _groups = {
        "store": StoreConfig,
        "engine": EngineConfig,
    }
    _kwargs = SERVE_KWARG_MAP
    _name = "serve_config"
    _keywords = "serving"
    # groups and fields earlier versions wrote that no reader ever read
    _retired = (
        "admission", "cost", "telemetry", "update", "routing",
        "engine.num_servers", "engine.batch_window", "engine.batch_max",
    )

    store: StoreConfig = field(default_factory=StoreConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)


def load_serve_config(path: str) -> ServeConfig:
    """Read a :class:`ServeConfig` from a JSON file."""
    return ServeConfig.load(path)

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
    "TelemetryConfig",
    "UpdateConfig",
    "EngineConfig",
    "AdmissionConfig",
    "ServeCostConfig",
    "RoutingConfig",
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


@dataclass(frozen=True)
class TelemetryConfig(_Group):
    """Request-telemetry knobs of the serving stack.

    Standalone like :class:`StoreConfig` (it shapes the serving side,
    not the solve): feeds
    :meth:`repro.serve.telemetry.TelemetryCollector.from_config`.
    ``sample`` is the deterministic per-trace JSONL sink admission
    fraction — 1.0 logs every request, smaller values keep a stable
    hash-selected subset so two identical runs still produce identical
    logs.
    """

    _name = "telemetry"

    #: ring-buffer capacity, in events (the ring answers "what just
    #: happened"; the JSONL sink is the durable log)
    capacity: int = 4096
    #: per-trace sink sampling fraction, in (0, 1]
    sample: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.capacity, int) or isinstance(
            self.capacity, bool
        ) or self.capacity < 1:
            _fail(
                "telemetry.capacity",
                f"capacity must be an int >= 1, got {self.capacity!r}",
            )
        sample = self.sample
        if not isinstance(sample, (int, float)) or isinstance(
            sample, bool
        ) or not 0.0 < float(sample) <= 1.0:
            _fail(
                "telemetry.sample",
                f"sample must be a number in (0, 1], got {sample!r}",
            )
        object.__setattr__(self, "sample", float(sample))


@dataclass(frozen=True)
class UpdateConfig(_Group):
    """Knobs of :func:`repro.serve.apply_edge_updates`.

    Standalone like :class:`StoreConfig`: it shapes the incremental
    update path (dirty-shard screening, pre-flight verification, old
    generation retention), not the solve itself.
    """

    _name = "update"

    #: certify shards clean via the pinned landmark (ALT) bounds before
    #: running the exact endpoint-SSSP refinement; disabling skips the
    #: certificate pass (the exact refinement alone is still sound)
    prescreen: bool = True
    #: checksum the whole store before touching it — an update must
    #: never be layered on top of silent corruption
    verify_before: bool = True
    #: delete superseded shard/landmark files of older generations after
    #: the manifest swap; off by default so live readers keep working
    prune: bool = False

    def __post_init__(self) -> None:
        for name in ("prescreen", "verify_before", "prune"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                _fail(
                    f"update.{name}",
                    f"{name} must be a bool, got {value!r}",
                )


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

    def describe(self) -> str:
        """One-line human summary (CLI banner)."""
        bits = [
            self.algorithm.name,
            f"backend={self.parallel.backend}",
            f"threads={self.parallel.num_threads}",
        ]
        if self.algorithm.schedule:
            bits.append(f"schedule={self.algorithm.schedule}")
        if self.faults.plan is not None:
            bits.append(f"faults={len(self.faults.plan)}")
        return " ".join(bits)


def load_config(path: str) -> SolverConfig:
    """Read a :class:`SolverConfig` from a JSON file."""
    return SolverConfig.load(path)


# ---------------------------------------------------------------------------
# ServeConfig — one validated description of the whole serving stack
# ---------------------------------------------------------------------------


def _check_int(field_name: str, value: Any, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        _fail(
            field_name,
            f"must be an int >= {minimum}, got {value!r}",
        )
    return value


def _check_nonneg(field_name: str, value: Any) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not float(value) >= 0 or float(value) == float("inf"):
        _fail(
            field_name,
            f"must be a finite number >= 0, got {value!r}",
        )
    return float(value)


@dataclass(frozen=True)
class EngineConfig(_Group):
    """Query-engine and virtual-replay knobs of the serving stack.

    These are the levers that trade memory for latency on the read
    path: the LRU shard-cache size, the virtual server count, and the
    point micro-batching window of :func:`repro.serve.replay_virtual`.
    """

    _name = "engine"

    cache_shards: int = 4
    verify_loads: bool = True
    num_servers: int = 2
    batch_window: float = 1e-3
    batch_max: int = 32

    def __post_init__(self) -> None:
        _check_int("engine.cache_shards", self.cache_shards, 1)
        if not isinstance(self.verify_loads, bool):
            _fail(
                "engine.verify_loads",
                f"verify_loads must be a bool, got {self.verify_loads!r}",
            )
        _check_int("engine.num_servers", self.num_servers, 1)
        window = _check_nonneg("engine.batch_window", self.batch_window)
        object.__setattr__(self, "batch_window", window)
        _check_int("engine.batch_max", self.batch_max, 1)


@dataclass(frozen=True)
class AdmissionConfig(_Group):
    """Per-class in-flight budgets (the admission controller's knobs).

    Mirrors :class:`repro.serve.admission.AdmissionPolicy`, but
    validates with :class:`~repro.exceptions.ConfigError` naming the
    field and serializes with the rest of :class:`ServeConfig`;
    :meth:`to_policy` hands the runtime object to the front end.
    """

    _name = "admission"

    max_point: int = 64
    max_row: int = 4
    max_topk: int = 8

    def __post_init__(self) -> None:
        for name in ("max_point", "max_row", "max_topk"):
            _check_int(f"admission.{name}", getattr(self, name), 1)

    def to_policy(self):
        from .serve.admission import AdmissionPolicy

        return AdmissionPolicy(**dataclasses.asdict(self))


@dataclass(frozen=True)
class ServeCostConfig(_Group):
    """Virtual service costs of the replay model, in virtual seconds.

    Field-for-field the knobs of
    :class:`repro.serve.replay.ServeCostModel`; :meth:`to_model` builds
    the runtime object.  Kept as a config group so a whole serving
    scenario (costs included) round-trips through one JSON file.
    """

    _name = "cost"

    load_base: float = 2e-4
    load_per_mb: float = 0.064
    point_cost: float = 5e-6
    gather_cost: float = 2e-5
    row_cost: float = 2e-4
    topk_cost: float = 3e-4
    approx_cost: float = 1e-5

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = _check_nonneg(f"cost.{f.name}", getattr(self, f.name))
            object.__setattr__(self, f.name, value)

    def to_model(self):
        from .serve.replay import ServeCostModel

        return ServeCostModel(**dataclasses.asdict(self))


@dataclass(frozen=True)
class RoutingConfig(_Group):
    """Multi-node shard-routing topology (:mod:`repro.serve.router`).

    ``num_nodes=1`` is the single-node serving stack; more nodes place
    shards on a consistent-hash ring with ``replication`` copies each,
    ``vnodes`` ring points per node, and a per-node in-flight budget of
    ``node_budget`` requests served by ``servers_per_node`` virtual
    servers.
    """

    _name = "routing"

    num_nodes: int = 1
    replication: int = 1
    vnodes: int = 64
    hash_seed: int = 0
    node_budget: int = 32
    servers_per_node: int = 2

    def __post_init__(self) -> None:
        _check_int("routing.num_nodes", self.num_nodes, 1)
        _check_int("routing.replication", self.replication, 1)
        _check_int("routing.vnodes", self.vnodes, 1)
        if not isinstance(self.hash_seed, int) \
                or isinstance(self.hash_seed, bool) or self.hash_seed < 0:
            _fail(
                "routing.hash_seed",
                f"hash_seed must be an int >= 0, got {self.hash_seed!r}",
            )
        _check_int("routing.node_budget", self.node_budget, 1)
        _check_int("routing.servers_per_node", self.servers_per_node, 1)
        if self.replication > self.num_nodes:
            _fail(
                "routing.replication",
                f"replication {self.replication} exceeds num_nodes "
                f"{self.num_nodes}; a shard cannot have more replicas "
                "than there are nodes to hold them",
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
    "num_servers": ("engine", "num_servers"),
    "batch_window": ("engine", "batch_window"),
    "batch_max": ("engine", "batch_max"),
    "max_point": ("admission", "max_point"),
    "max_row": ("admission", "max_row"),
    "max_topk": ("admission", "max_topk"),
    "load_base": ("cost", "load_base"),
    "load_per_mb": ("cost", "load_per_mb"),
    "point_cost": ("cost", "point_cost"),
    "gather_cost": ("cost", "gather_cost"),
    "row_cost": ("cost", "row_cost"),
    "topk_cost": ("cost", "topk_cost"),
    "approx_cost": ("cost", "approx_cost"),
    "telemetry_capacity": ("telemetry", "capacity"),
    "telemetry_sample": ("telemetry", "sample"),
    "prescreen": ("update", "prescreen"),
    "verify_before": ("update", "verify_before"),
    "prune": ("update", "prune"),
    "num_nodes": ("routing", "num_nodes"),
    "replication": ("routing", "replication"),
    "vnodes": ("routing", "vnodes"),
    "hash_seed": ("routing", "hash_seed"),
    "node_budget": ("routing", "node_budget"),
    "servers_per_node": ("routing", "servers_per_node"),
}


@dataclass(frozen=True)
class ServeConfig(_Bundle):
    """One complete, validated, serializable serving-stack setup.

    The serving counterpart of :class:`SolverConfig`: the store layout
    (``store``), the query engine and replay model (``engine``,
    ``cost``), admission budgets (``admission``), request telemetry
    (``telemetry``), incremental updates (``update``) and the
    multi-node routing tier (``routing``) in one frozen object.  It is
    the file format of ``repro-apsp store``/``query``/``serve-bench
    --config``; the serving entry points themselves take flat keywords,
    so the CLI hands them one group each — ``solve_to_store(graph,
    path, **cfg.store.to_dict())``, ``QueryEngine(store,
    cache_shards=cfg.engine.cache_shards, ...)``.
    """

    _groups = {
        "store": StoreConfig,
        "engine": EngineConfig,
        "admission": AdmissionConfig,
        "cost": ServeCostConfig,
        "telemetry": TelemetryConfig,
        "update": UpdateConfig,
        "routing": RoutingConfig,
    }
    _kwargs = SERVE_KWARG_MAP
    _name = "serve_config"
    _keywords = "serving"
    # the cost of a cache hit, which neither replay ever charged
    _retired = ("cost.hit_cost",)

    store: StoreConfig = field(default_factory=StoreConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    cost: ServeCostConfig = field(default_factory=ServeCostConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    update: UpdateConfig = field(default_factory=UpdateConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)

    def describe(self) -> str:
        """One-line human summary (CLI banner)."""
        bits = [
            f"codec={self.store.codec}",
            f"shard_rows={self.store.shard_rows}",
            f"cache_shards={self.engine.cache_shards}",
        ]
        if self.store.epsilon is not None:
            bits.append(f"epsilon={self.store.epsilon:g}")
        if self.routing.num_nodes > 1:
            bits.append(
                f"nodes={self.routing.num_nodes}"
                f"x{self.routing.replication}"
            )
        return " ".join(bits)


def load_serve_config(path: str) -> ServeConfig:
    """Read a :class:`ServeConfig` from a JSON file."""
    return ServeConfig.load(path)

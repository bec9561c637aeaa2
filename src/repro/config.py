"""First-class solver configuration: :class:`SolverConfig`.

:func:`repro.solve_apsp` accreted ~20 keyword arguments across the
observability, batching, tracing and fault-injection PRs.  Following the
GraphIt/PriorityGraph separation of *algorithm* from *schedule* (Zhang
et al., arXiv:1911.07260), this module groups those knobs into a frozen,
serializable object so a whole run is reproducible from one artifact::

    cfg = SolverConfig(
        algorithm=AlgorithmConfig(name="parapsp", ratio=0.9),
        parallel=ParallelConfig(backend="sim", num_threads=16),
    )
    result = solve_apsp(graph, config=cfg)
    json.dump(cfg.to_dict(), fh)          # …and later:
    solve_apsp(graph, config=SolverConfig.from_dict(json.load(fh)))

Groups mirror the subsystems that own the knobs:

=============== ====================================================
group           knobs
=============== ====================================================
``algorithm``   name, ordering, schedule, queue, ratio, degree_kind,
                use_flags
``parallel``    backend, num_threads, chunk, machine
``batch``       block_size, kernel
``faults``      plan, on_worker_death, timeout, max_retries
``obs``         trace, cost_model
=============== ====================================================

Validation happens once, in each dataclass's ``__post_init__``, and
raises :class:`~repro.exceptions.ConfigError` naming the offending
field (``"algorithm.ratio"``); both the kwargs form and the config form
of ``solve_apsp`` go through this single path.  ``to_dict`` /
``from_dict`` round-trip exactly (asserted by a hypothesis property
test), so configs can live in JSON files and BENCH artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from .core.costs import DEFAULT_COST_MODEL, DijkstraCostModel
from .exceptions import ConfigError, FaultPlanError, ReproError
from .faults.plan import FaultPlan
from .graphs.degree import DegreeKind
from .simx.machine import MachineSpec
from .types import Backend, Schedule

__all__ = [
    "AlgorithmConfig",
    "ParallelConfig",
    "BatchConfig",
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
    "resolve_serve_config",
]

#: queue disciplines of :func:`repro.core.modified_dijkstra_sssp`
QUEUE_DISCIPLINES: Tuple[str, ...] = ("fifo", "heap")

#: recovery policies of :func:`repro.parallel.parallel_for`
DEATH_POLICIES: Tuple[str, ...] = ("retry", "raise")


def _fail(field_name: str, message: str) -> None:
    raise ConfigError(message, field=field_name)


@dataclass(frozen=True)
class AlgorithmConfig:
    """What to solve and in which order (the *algorithm* of the run)."""

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
class ParallelConfig:
    """Where and how wide the run executes."""

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
class BatchConfig:
    """Batched-sweep engine knobs (:mod:`repro.core.batch`)."""

    #: ``None`` = unbatched, ``"auto"`` = tuned, int = block of sources
    block_size: "int | str | None" = None
    kernel: str = "auto"

    def __post_init__(self) -> None:
        from .core.kernels import kernel_names

        bs = self.block_size
        if isinstance(bs, str):
            if bs != "auto":
                _fail(
                    "batch.block_size",
                    f"block_size must be a positive int, 'auto' or None; "
                    f"got {bs!r}",
                )
        elif bs is not None:
            if not isinstance(bs, int) or isinstance(bs, bool) or bs < 1:
                _fail(
                    "batch.block_size",
                    f"block_size must be a positive int, 'auto' or None; "
                    f"got {bs!r}",
                )
        valid = ("auto",) + kernel_names()
        if self.kernel not in valid:
            _fail(
                "batch.kernel",
                f"unknown kernel {self.kernel!r}; expected one of {valid}",
            )


@dataclass(frozen=True)
class FaultConfig:
    """Fault injection and crash-recovery policy (:mod:`repro.faults`)."""

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
class ObsConfig:
    """Measurement knobs: tracing and the virtual cost model."""

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
class StoreConfig:
    """Store-side knobs of :func:`repro.serve.solve_to_store`.

    Deliberately *not* a :class:`SolverConfig` group: it shapes the
    on-disk layout (shard geometry, codec, landmark count) and the
    serving contract (``epsilon``), not the solve itself, so the same
    SolverConfig can feed stores of different codecs.
    """

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

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StoreConfig":
        if not isinstance(data, Mapping):
            _fail(
                "store", f"must be a mapping, got {type(data).__name__}"
            )
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - valid
        if unknown:
            _fail("store", f"unknown field(s): {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class TelemetryConfig:
    """Request-telemetry knobs of the serving stack.

    Standalone like :class:`StoreConfig` (it shapes the serving side,
    not the solve): feeds
    :meth:`repro.serve.telemetry.TelemetryCollector.from_config`.
    ``sample`` is the deterministic per-trace JSONL sink admission
    fraction — 1.0 logs every request, smaller values keep a stable
    hash-selected subset so two identical runs still produce identical
    logs.
    """

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

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TelemetryConfig":
        if not isinstance(data, Mapping):
            _fail(
                "telemetry",
                f"must be a mapping, got {type(data).__name__}",
            )
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - valid
        if unknown:
            _fail("telemetry", f"unknown field(s): {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class UpdateConfig:
    """Knobs of :func:`repro.serve.apply_edge_updates`.

    Standalone like :class:`StoreConfig`: it shapes the incremental
    update path (dirty-shard screening, pre-flight verification, old
    generation retention), not the solve itself.
    """

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

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "UpdateConfig":
        if not isinstance(data, Mapping):
            _fail(
                "update", f"must be a mapping, got {type(data).__name__}"
            )
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - valid
        if unknown:
            _fail("update", f"unknown field(s): {sorted(unknown)}")
        return cls(**data)


#: flat ``solve_apsp`` kwarg name → (group attribute, field name)
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
    "block_size": ("batch", "block_size"),
    "kernel": ("batch", "kernel"),
    "fault_plan": ("faults", "plan"),
    "on_worker_death": ("faults", "on_worker_death"),
    "timeout": ("faults", "timeout"),
    "max_retries": ("faults", "max_retries"),
    "trace": ("obs", "trace"),
    "cost_model": ("obs", "cost_model"),
}

_GROUP_TYPES = {
    "algorithm": AlgorithmConfig,
    "parallel": ParallelConfig,
    "batch": BatchConfig,
    "faults": FaultConfig,
    "obs": ObsConfig,
}


@dataclass(frozen=True)
class SolverConfig:
    """One complete, validated, serializable ``solve_apsp`` setup."""

    algorithm: AlgorithmConfig = field(default_factory=AlgorithmConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        for name, kind in _GROUP_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, Mapping):  # tolerate nested plain dicts
                value = _group_from_dict(name, kind, value)
                object.__setattr__(self, name, value)
            elif not isinstance(value, kind):
                _fail(
                    name,
                    f"must be a {kind.__name__} (or a mapping), "
                    f"got {type(value).__name__}",
                )
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

    # -- construction ----------------------------------------------------
    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "SolverConfig":
        """Build a config from legacy flat ``solve_apsp`` kwargs."""
        groups: Dict[str, Dict[str, Any]] = {g: {} for g in _GROUP_TYPES}
        for key, value in kwargs.items():
            target = KWARG_MAP.get(key)
            if target is None:
                _fail(
                    key,
                    f"unknown solve_apsp keyword {key!r}; known: "
                    f"{', '.join(sorted(KWARG_MAP))}",
                )
            group, fname = target
            groups[group][fname] = value
        return cls(
            **{
                group: kind(**groups[group])
                for group, kind in _GROUP_TYPES.items()
            }
        )

    def with_overrides(self, **kwargs: Any) -> "SolverConfig":
        """Copy with some flat kwargs replaced (the shim's merge step)."""
        patches: Dict[str, Dict[str, Any]] = {}
        for key, value in kwargs.items():
            target = KWARG_MAP.get(key)
            if target is None:
                _fail(key, f"unknown solve_apsp keyword {key!r}")
            group, fname = target
            patches.setdefault(group, {})[fname] = value
        replaced = {
            group: dataclasses.replace(getattr(self, group), **fields)
            for group, fields in patches.items()
        }
        return dataclasses.replace(self, **replaced)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-JSON dict; inverse of :meth:`from_dict`."""
        out: Dict[str, Any] = {}
        for group in _GROUP_TYPES:
            value = getattr(self, group)
            data = dataclasses.asdict(value)
            if group == "parallel" and value.machine is not None:
                data["machine"] = dataclasses.asdict(value.machine)
            if group == "faults":
                data["plan"] = (
                    value.plan.to_dict() if value.plan is not None else None
                )
            if group == "obs":
                data["cost_model"] = dataclasses.asdict(value.cost_model)
            out[group] = data
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverConfig":
        if not isinstance(data, Mapping):
            _fail("config", f"must be a mapping, got {type(data).__name__}")
        unknown = set(data) - set(_GROUP_TYPES)
        if unknown:
            _fail("config", f"unknown group(s): {sorted(unknown)}")
        groups = {}
        for name, kind in _GROUP_TYPES.items():
            raw = data.get(name)
            if raw is None:
                groups[name] = kind()
            else:
                groups[name] = _group_from_dict(name, kind, raw)
        return cls(**groups)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SolverConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            _fail("config", f"bad config JSON: {exc}")
        return cls.from_dict(data)

    def describe(self) -> str:
        """One-line human summary (CLI banner)."""
        bits = [
            self.algorithm.name,
            f"backend={self.parallel.backend}",
            f"threads={self.parallel.num_threads}",
        ]
        if self.algorithm.schedule:
            bits.append(f"schedule={self.algorithm.schedule}")
        if self.batch.block_size is not None:
            bits.append(f"block_size={self.batch.block_size}")
        if self.faults.plan is not None:
            bits.append(f"faults={len(self.faults.plan)}")
        return " ".join(bits)


def _group_from_dict(name: str, kind: type, raw: Any):
    """Instantiate one sub-config from a plain mapping."""
    if isinstance(raw, kind):
        return raw
    if not isinstance(raw, Mapping):
        _fail(name, f"must be a mapping, got {type(raw).__name__}")
    valid = {f.name for f in dataclasses.fields(kind)}
    unknown = set(raw) - valid
    if unknown:
        _fail(name, f"unknown field(s): {sorted(unknown)}")
    data = dict(raw)
    if name == "parallel" and isinstance(data.get("machine"), Mapping):
        try:
            data["machine"] = MachineSpec(**data["machine"])
        except (TypeError, ReproError) as exc:
            _fail("parallel.machine", str(exc))
    if name == "faults" and isinstance(data.get("plan"), Mapping):
        try:
            data["plan"] = FaultPlan.from_dict(data["plan"])
        except FaultPlanError as exc:
            _fail("faults.plan", str(exc))
    if name == "obs" and isinstance(data.get("cost_model"), Mapping):
        try:
            data["cost_model"] = DijkstraCostModel(**data["cost_model"])
        except TypeError as exc:
            _fail("obs.cost_model", str(exc))
    return kind(**data)


def load_config(path: str) -> SolverConfig:
    """Read a :class:`SolverConfig` from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail("config", f"cannot read {path!r}: {exc}")
    return SolverConfig.from_json(text)


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
class EngineConfig:
    """Query-engine and virtual-replay knobs of the serving stack.

    These are the levers that trade memory for latency on the read
    path: the LRU shard-cache size, the virtual server count, and the
    point micro-batching window of :func:`repro.serve.replay_virtual`.
    """

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

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        return _serve_group_from_dict("engine", cls, data)


@dataclass(frozen=True)
class AdmissionConfig:
    """Per-class in-flight budgets (the admission controller's knobs).

    Mirrors :class:`repro.serve.admission.AdmissionPolicy`, but
    validates with :class:`~repro.exceptions.ConfigError` naming the
    field and serializes with the rest of :class:`ServeConfig`;
    :meth:`to_policy` hands the runtime object to the front end.
    """

    max_point: int = 64
    max_row: int = 4
    max_topk: int = 8

    def __post_init__(self) -> None:
        for name in ("max_point", "max_row", "max_topk"):
            _check_int(f"admission.{name}", getattr(self, name), 1)

    def to_policy(self):
        from .serve.admission import AdmissionPolicy

        return AdmissionPolicy(
            max_point=self.max_point,
            max_row=self.max_row,
            max_topk=self.max_topk,
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdmissionConfig":
        return _serve_group_from_dict("admission", cls, data)


@dataclass(frozen=True)
class ServeCostConfig:
    """Virtual service costs of the replay model, in virtual seconds.

    Field-for-field the knobs of
    :class:`repro.serve.replay.ServeCostModel`; :meth:`to_model` builds
    the runtime object.  Kept as a config group so a whole serving
    scenario (costs included) round-trips through one JSON file.
    """

    load_base: float = 2e-4
    load_per_mb: float = 0.064
    hit_cost: float = 2e-5
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

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeCostConfig":
        return _serve_group_from_dict("cost", cls, data)


@dataclass(frozen=True)
class RoutingConfig:
    """Multi-node shard-routing topology (:mod:`repro.serve.router`).

    ``num_nodes=1`` is the single-node serving stack of PRs 5–9; more
    nodes place shards on a consistent-hash ring with ``replication``
    copies each, ``vnodes`` ring points per node, and a per-node
    in-flight budget of ``node_budget`` requests served by
    ``servers_per_node`` virtual servers.
    """

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

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RoutingConfig":
        return _serve_group_from_dict("routing", cls, data)


#: flat serving kwarg name → (ServeConfig group, field name); the serve
#: counterpart of :data:`KWARG_MAP`, shared by every serving entry point
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
    "hit_cost": ("cost", "hit_cost"),
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

_SERVE_GROUP_TYPES = {
    "store": StoreConfig,
    "engine": EngineConfig,
    "admission": AdmissionConfig,
    "cost": ServeCostConfig,
    "telemetry": TelemetryConfig,
    "update": UpdateConfig,
    "routing": RoutingConfig,
}


def _serve_group_from_dict(name: str, kind: type, raw: Any):
    """Instantiate one ServeConfig sub-config from a plain mapping."""
    if isinstance(raw, kind):
        return raw
    if not isinstance(raw, Mapping):
        _fail(name, f"must be a mapping, got {type(raw).__name__}")
    valid = {f.name for f in dataclasses.fields(kind)}
    unknown = set(raw) - valid
    if unknown:
        _fail(name, f"unknown field(s): {sorted(unknown)}")
    return kind(**raw)


@dataclass(frozen=True)
class ServeConfig:
    """One complete, validated, serializable serving-stack setup.

    The serving counterpart of :class:`SolverConfig`: the store layout
    (``store``), the query engine and replay model (``engine``,
    ``cost``), admission budgets (``admission``), request telemetry
    (``telemetry``), incremental updates (``update``) and the
    multi-node routing tier (``routing``) in one frozen object.
    :func:`repro.serve.solve_to_store`, :class:`repro.serve.QueryEngine`,
    :class:`repro.serve.ServeFrontend` and the replay entry points all
    accept one through the shared :func:`resolve_serve_config` shim, so
    legacy flat kwargs and the config form take a single validation and
    dispatch path (conflicts warn, explicit kwargs win — the
    ``SolverConfig`` contract).
    """

    store: StoreConfig = field(default_factory=StoreConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    cost: ServeCostConfig = field(default_factory=ServeCostConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    update: UpdateConfig = field(default_factory=UpdateConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)

    def __post_init__(self) -> None:
        for name, kind in _SERVE_GROUP_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, Mapping):  # tolerate nested plain dicts
                value = _serve_group_from_dict(name, kind, value)
                object.__setattr__(self, name, value)
            elif not isinstance(value, kind):
                _fail(
                    name,
                    f"must be a {kind.__name__} (or a mapping), "
                    f"got {type(value).__name__}",
                )

    # -- construction ----------------------------------------------------
    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "ServeConfig":
        """Build a config from legacy flat serving kwargs."""
        groups: Dict[str, Dict[str, Any]] = {
            g: {} for g in _SERVE_GROUP_TYPES
        }
        for key, value in kwargs.items():
            target = SERVE_KWARG_MAP.get(key)
            if target is None:
                _fail(
                    key,
                    f"unknown serving keyword {key!r}; known: "
                    f"{', '.join(sorted(SERVE_KWARG_MAP))}",
                )
            group, fname = target
            groups[group][fname] = value
        return cls(
            **{
                group: kind(**groups[group])
                for group, kind in _SERVE_GROUP_TYPES.items()
            }
        )

    def with_overrides(self, **kwargs: Any) -> "ServeConfig":
        """Copy with some flat kwargs replaced (the shim's merge step)."""
        patches: Dict[str, Dict[str, Any]] = {}
        for key, value in kwargs.items():
            target = SERVE_KWARG_MAP.get(key)
            if target is None:
                _fail(key, f"unknown serving keyword {key!r}")
            group, fname = target
            patches.setdefault(group, {})[fname] = value
        replaced = {
            group: dataclasses.replace(getattr(self, group), **fields)
            for group, fields in patches.items()
        }
        return dataclasses.replace(self, **replaced)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-JSON dict; inverse of :meth:`from_dict`."""
        return {
            group: dataclasses.asdict(getattr(self, group))
            for group in _SERVE_GROUP_TYPES
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeConfig":
        if not isinstance(data, Mapping):
            _fail(
                "serve_config",
                f"must be a mapping, got {type(data).__name__}",
            )
        unknown = set(data) - set(_SERVE_GROUP_TYPES)
        if unknown:
            _fail("serve_config", f"unknown group(s): {sorted(unknown)}")
        groups = {}
        for name, kind in _SERVE_GROUP_TYPES.items():
            raw = data.get(name)
            if raw is None:
                groups[name] = kind()
            else:
                groups[name] = _serve_group_from_dict(name, kind, raw)
        return cls(**groups)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ServeConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            _fail("serve_config", f"bad config JSON: {exc}")
        return cls.from_dict(data)

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


def resolve_serve_config(
    config: Any,
    *,
    caller: str,
    overrides: Optional[Mapping[str, Any]] = None,
) -> ServeConfig:
    """The single dispatch shim behind every serving entry point.

    ``config`` may be a :class:`ServeConfig`, a nested mapping in its
    ``to_dict`` layout, or ``None``; ``overrides`` holds the flat
    legacy kwargs the caller's user actually passed.  Passing both a
    config and conflicting kwargs emits a :class:`DeprecationWarning`
    (the explicit kwargs win) — the exact contract of
    :func:`repro.solve_apsp`'s ``SolverConfig`` shim.
    """
    overrides = dict(overrides or {})
    if config is None:
        return ServeConfig.from_kwargs(**overrides)
    if isinstance(config, Mapping):
        config = ServeConfig.from_dict(config)
    elif not isinstance(config, ServeConfig):
        raise ConfigError(
            f"serve_config must be a ServeConfig or a mapping, "
            f"got {type(config).__name__}",
            field="serve_config",
        )
    if not overrides:
        return config
    merged = config.with_overrides(**overrides)
    if merged != config:
        warnings.warn(
            f"{caller} received both serve_config= and conflicting "
            f"keyword argument(s) {sorted(overrides)}; the explicit "
            "kwargs win.  Pass one ServeConfig instead.",
            DeprecationWarning,
            stacklevel=3,
        )
    return merged


def load_serve_config(path: str) -> ServeConfig:
    """Read a :class:`ServeConfig` from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail("serve_config", f"cannot read {path!r}: {exc}")
    return ServeConfig.from_json(text)

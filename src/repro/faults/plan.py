"""Deterministic fault-injection plans (:class:`FaultPlan`).

A plan is a seeded, schema-like description of *what goes wrong* during
one parallel region, decoupled from *how* each execution layer realises
it:

* the **process backend** turns a ``kill`` into a genuine
  ``SIGKILL`` of the worker's own process, a ``stall`` into a sleep, a
  ``raise`` into a :class:`~repro.exceptions.FaultInjected` thrown
  inside the mapped function, and ``corrupt-pipe`` into garbage bytes
  written over the result pipe before the worker exits;
* the **threads backend** models ``kill`` as a silent worker-thread
  death (the thread stops claiming work without reporting anything);
* the **simulator** (:mod:`repro.simx.parfor`) reads the same
  injector hooks in virtual time: a stall is virtual overhead, a
  killed thread stops at the current virtual instant, and its
  unexecuted iterations re-enter the work queue and are re-issued to
  surviving threads as labelled ``recovery`` trace events.  Static
  assignments stay one claim each, dispatched in virtual-time order;
  an empty plan is the plan-free run.

Determinism: every trigger is counted in claims/iterations, never in
wall time, so a given plan produces the same injection point on every
run.  ``worker=-1`` defers the target choice to the plan's ``seed``
(resolved once by :meth:`FaultPlan.bind`), which keeps randomised plans
reproducible.

Triggers fire **once** per armed spec per run; retry rounds re-create
worker state, so a spec carries the ``round`` it belongs to (default 0,
the initial round) — a plan that kills round 0's worker does not kill
its round-1 replacement unless it says so explicitly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ..exceptions import FaultPlanError

__all__ = [
    "KILL",
    "STALL",
    "RAISE",
    "CORRUPT_PIPE",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "parse_fault_plan",
]

KILL = "kill"
STALL = "stall"
RAISE = "raise"
CORRUPT_PIPE = "corrupt-pipe"

#: every fault kind a plan may carry
FAULT_KINDS = (KILL, STALL, RAISE, CORRUPT_PIPE)

#: DSL field name → FaultSpec attribute
_DSL_FIELDS = {
    "worker": "worker",
    "after": "after_claims",
    "after_claims": "after_claims",
    "iteration": "iteration",
    "for": "seconds",
    "seconds": "seconds",
    "round": "round",
}


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``worker`` targets a worker/thread id (``-1`` = seeded random pick,
    see :meth:`FaultPlan.bind`).  ``after_claims`` arms kill/stall/
    corrupt-pipe faults after the worker's m-th successful work claim
    (a static worker's whole assignment is one claim, so
    ``after_claims > 1`` fires on a static schedule only at the
    recovery claims a simulated survivor takes).
    ``iteration`` arms a ``raise`` fault on a specific loop index,
    wherever it is executed.  ``seconds`` is the stall length: wall
    seconds on real backends, virtual work units in the simulator.
    ``round`` scopes the spec to one retry round (0 = initial attempt).
    """

    kind: str
    worker: int = 0
    after_claims: int = 1
    iteration: Optional[int] = None
    seconds: float = 0.05
    round: int = 0

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.worker < -1:
            raise FaultPlanError(
                f"fault worker must be >= 0 (or -1 for seeded), "
                f"got {self.worker}"
            )
        if self.after_claims < 1:
            raise FaultPlanError(
                f"after_claims must be >= 1, got {self.after_claims}"
            )
        if self.round < 0:
            raise FaultPlanError(f"round must be >= 0, got {self.round}")
        if self.kind == RAISE:
            if self.iteration is None or self.iteration < 0:
                raise FaultPlanError(
                    "raise faults need iteration >= 0 "
                    f"(got {self.iteration!r})"
                )
        if self.kind == STALL and not (
            self.seconds >= 0 and math.isfinite(self.seconds)
        ):
            raise FaultPlanError(
                f"stall seconds must be finite and >= 0, "
                f"got {self.seconds!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "worker": self.worker}
        if self.kind == RAISE:
            out["iteration"] = self.iteration
        else:
            out["after_claims"] = self.after_claims
        if self.kind == STALL:
            out["seconds"] = self.seconds
        if self.round:
            out["round"] = self.round
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        if not isinstance(data, Mapping):
            raise FaultPlanError(
                f"a fault spec must be a mapping, got {data!r}"
            )
        unknown = set(data) - {
            "kind", "worker", "after_claims", "iteration", "seconds",
            "round",
        }
        if unknown:
            raise FaultPlanError(
                f"unknown fault spec field(s): {sorted(unknown)}"
            )
        if "kind" not in data:
            raise FaultPlanError("fault spec needs a 'kind'")
        spec = cls(
            kind=str(data["kind"]),
            worker=_number(data, "worker", 0),
            after_claims=_number(data, "after_claims", 1),
            iteration=(
                _number(data, "iteration", None)
                if data.get("iteration") is not None
                else None
            ),
            seconds=_number(data, "seconds", 0.05, integral=False),
            round=_number(data, "round", 0),
        )
        spec.validate()
        return spec


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, seeded collection of :class:`FaultSpec` records."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        self.validate()

    def validate(self) -> None:
        if self.seed < 0:
            raise FaultPlanError(f"seed must be >= 0, got {self.seed}")
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise FaultPlanError(
                    f"plan entries must be FaultSpec, got {spec!r}"
                )
            spec.validate()

    def __len__(self) -> int:
        return len(self.faults)

    def bind(self, num_workers: int) -> "FaultPlan":
        """Resolve seeded (``worker=-1``) targets against a worker count.

        Deterministic: the k-th unresolved spec draws the k-th value of
        ``default_rng(seed)``.  Specs naming a worker outside
        ``range(num_workers)`` are dropped (they cannot fire), so a plan
        written for 8 workers degrades gracefully on 2.
        """
        if num_workers < 1:
            raise FaultPlanError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        import numpy as np

        rng = np.random.default_rng(self.seed)
        resolved = []
        for spec in self.faults:
            if spec.worker == -1:
                spec = replace(
                    spec, worker=int(rng.integers(0, num_workers))
                )
            if spec.worker < num_workers:
                resolved.append(spec)
        return FaultPlan(faults=tuple(resolved), seed=self.seed)

    def for_worker(
        self, worker: int, *, round: int = 0
    ) -> Tuple[FaultSpec, ...]:
        """The specs that target one worker in one retry round."""
        return tuple(
            s
            for s in self.faults
            if s.worker == worker and s.round == round
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise FaultPlanError(
                f"a fault plan must be a mapping, got {data!r}"
            )
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan field(s): {sorted(unknown)}"
            )
        raw = data.get("faults", [])
        if not isinstance(raw, Iterable) or isinstance(raw, (str, bytes)):
            raise FaultPlanError("'faults' must be a list of fault specs")
        return cls(
            faults=tuple(FaultSpec.from_dict(item) for item in raw),
            seed=_number(data, "seed", 0),
        )

    @classmethod
    def single(cls, kind: str, **kwargs: Any) -> "FaultPlan":
        """Convenience constructor for one-fault plans."""
        return cls(faults=(FaultSpec(kind=kind, **kwargs),))


def _number(
    data: Mapping[str, Any], key: str, default: Any, *, integral: bool = True
) -> "int | float":
    """``data[key]`` (or ``default``) as an int, or a float when not
    ``integral``.  DSL values arrive as text and are parsed; anything
    else that is not already a number of that kind (``None``, a bool,
    ``1.7`` for an int field) is a :class:`FaultPlanError`."""
    value = data.get(key, default)
    if isinstance(value, str):
        try:
            value = int(value) if integral else float(value)
        except ValueError:
            pass
    kinds = (int,) if integral else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise FaultPlanError(
            f"fault field {key!r} must be "
            f"{'an integer' if integral else 'a number'}, got {value!r}"
        )
    return value if integral else float(value)


def _parse_dsl_spec(text: str) -> FaultSpec:
    head, _, rest = text.partition(":")
    kind = head.strip()
    data: Dict[str, Any] = {"kind": kind}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in _DSL_FIELDS:
                raise FaultPlanError(
                    f"bad fault field {item!r}; expected "
                    f"{sorted(set(_DSL_FIELDS))} as key=value"
                )
            data[_DSL_FIELDS[key]] = value
    return FaultSpec.from_dict(data)


def parse_fault_plan(text: str, *, seed: int = 0) -> FaultPlan:
    """Parse a plan from a JSON file path, a JSON string, or the DSL.

    The DSL is ``kind:key=value,key=value`` with specs separated by
    ``;`` — e.g. ``"kill:worker=1,after=2;stall:worker=0,for=0.1"``.
    Recognised keys: ``worker``, ``after`` (claims), ``iteration``,
    ``for``/``seconds`` (stall length), ``round``.
    """
    text = text.strip()
    if not text:
        raise FaultPlanError("empty fault plan")
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    if text.startswith("{") or text.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"bad fault plan JSON: {exc}") from None
        if isinstance(data, list):
            data = {"faults": data, "seed": seed}
        data.setdefault("seed", seed)
        return FaultPlan.from_dict(data)
    specs = tuple(
        _parse_dsl_spec(part)
        for part in text.split(";")
        if part.strip()
    )
    if not specs:
        raise FaultPlanError(f"no fault specs in {text!r}")
    return FaultPlan(faults=specs, seed=seed)

"""FaultPlan / FaultSpec: validation, parsing, binding, round scoping."""

import json

import pytest

from repro.exceptions import FaultPlanError
from repro.faults import (
    CORRUPT_PIPE,
    FAULT_KINDS,
    KILL,
    RAISE,
    STALL,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
)


class TestFaultSpec:
    def test_defaults_valid(self):
        FaultSpec(kind=KILL).validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec(kind="meteor").validate()

    def test_every_declared_kind_constructible(self):
        for kind in FAULT_KINDS:
            spec = FaultSpec(
                kind=kind, iteration=0 if kind == RAISE else None
            )
            spec.validate()

    def test_raise_needs_iteration(self):
        with pytest.raises(FaultPlanError, match="iteration"):
            FaultSpec(kind=RAISE).validate()

    def test_after_claims_must_be_positive(self):
        with pytest.raises(FaultPlanError, match="after_claims"):
            FaultSpec(kind=KILL, after_claims=0).validate()

    def test_negative_stall_rejected(self):
        with pytest.raises(FaultPlanError, match="seconds"):
            FaultSpec(kind=STALL, seconds=-1.0).validate()

    def test_worker_below_minus_one_rejected(self):
        with pytest.raises(FaultPlanError, match="worker"):
            FaultSpec(kind=KILL, worker=-2).validate()

    def test_dict_round_trip(self):
        for spec in (
            FaultSpec(kind=KILL, worker=3, after_claims=2),
            FaultSpec(kind=RAISE, worker=1, iteration=7),
            FaultSpec(kind=STALL, worker=0, seconds=0.25, round=1),
            FaultSpec(kind=CORRUPT_PIPE, worker=2),
        ):
            assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultPlanError, match="unknown fault spec"):
            FaultSpec.from_dict({"kind": KILL, "severity": 11})


class TestFaultPlan:
    def test_single(self):
        plan = FaultPlan.single(KILL, worker=1, after_claims=2)
        assert len(plan) == 1
        assert plan.faults[0].worker == 1

    def test_bind_drops_out_of_range_workers(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind=KILL, worker=7),
                FaultSpec(kind=KILL, worker=0),
            )
        )
        bound = plan.bind(2)
        assert [s.worker for s in bound.faults] == [0]

    def test_bind_resolves_seeded_workers_deterministically(self):
        plan = FaultPlan(
            faults=(FaultSpec(kind=KILL, worker=-1),), seed=42
        )
        first = plan.bind(8)
        second = plan.bind(8)
        assert first.faults[0].worker == second.faults[0].worker
        assert 0 <= first.faults[0].worker < 8

    def test_bind_rejects_bad_worker_count(self):
        with pytest.raises(FaultPlanError, match="num_workers"):
            FaultPlan().bind(0)

    def test_for_worker_scopes_rounds(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind=KILL, worker=1, round=0),
                FaultSpec(kind=KILL, worker=1, round=1),
                FaultSpec(kind=KILL, worker=0, round=0),
            )
        )
        assert len(plan.for_worker(1, round=0)) == 1
        assert len(plan.for_worker(1, round=1)) == 1
        assert plan.for_worker(1, round=2) == ()

    def test_plan_dict_round_trip(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind=KILL, worker=1, after_claims=2),
                FaultSpec(kind=RAISE, worker=0, iteration=3),
            ),
            seed=9,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan


class TestParse:
    def test_dsl_single(self):
        plan = parse_fault_plan("kill:worker=1,after=2")
        assert plan.faults == (
            FaultSpec(kind=KILL, worker=1, after_claims=2),
        )

    def test_dsl_multiple_specs(self):
        plan = parse_fault_plan(
            "kill:worker=1,after=2;stall:worker=0,for=0.1"
        )
        assert [s.kind for s in plan.faults] == [KILL, STALL]
        assert plan.faults[1].seconds == pytest.approx(0.1)

    def test_dsl_raise_with_iteration_and_round(self):
        plan = parse_fault_plan("raise:worker=2,iteration=5,round=1")
        spec = plan.faults[0]
        assert (spec.kind, spec.iteration, spec.round) == (RAISE, 5, 1)

    def test_dsl_bad_field_rejected(self):
        with pytest.raises(FaultPlanError, match="bad fault field"):
            parse_fault_plan("kill:when=later")

    def test_json_string(self):
        text = json.dumps(
            {"seed": 3, "faults": [{"kind": "kill", "worker": 1}]}
        )
        plan = parse_fault_plan(text)
        assert plan.seed == 3
        assert plan.faults[0].worker == 1

    def test_json_bare_list(self):
        plan = parse_fault_plan('[{"kind": "kill"}]', seed=7)
        assert plan.seed == 7
        assert plan.faults[0].kind == KILL

    def test_json_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps({"faults": [{"kind": "stall", "seconds": 0.2}]})
        )
        plan = parse_fault_plan(str(path))
        assert plan.faults[0].seconds == pytest.approx(0.2)

    def test_bad_json_rejected(self):
        with pytest.raises(FaultPlanError, match="bad fault plan JSON"):
            parse_fault_plan("{not json")

    def test_empty_rejected(self):
        with pytest.raises(FaultPlanError, match="empty"):
            parse_fault_plan("   ")

    @pytest.mark.parametrize("text", [
        "kill:worker=x",
        "kill:worker=1.7",
        "stall:worker=0,for=inf",
        "stall:worker=0,for=nan",
        "stall:worker=0,for=soon",
        '[{"kind": "kill", "worker": null}]',
        '[{"kind": "kill", "worker": true}]',
        '[{"kind": "kill", "worker": 1.7}]',
        '[{"kind": "stall", "seconds": "x"}]',
        "[5]",
        '{"faults": {"kind": "kill"}}',
        '{"seed": "x", "faults": []}',
        '{"seed": null, "faults": []}',
    ])
    def test_malformed_plan_raises_typed_error(self, text):
        with pytest.raises(FaultPlanError):
            parse_fault_plan(text)

    def test_from_dict_rejects_non_mappings(self):
        with pytest.raises(FaultPlanError, match="mapping"):
            FaultSpec.from_dict(["kill"])
        with pytest.raises(FaultPlanError, match="mapping"):
            FaultPlan.from_dict([{"kind": "kill"}])

"""The regression comparator: exact counters, tolerant timings, exits."""

import copy
import json
from pathlib import Path

import pytest

from repro.obs import build_artifact, load_artifact, write_artifact
from repro.obs.artifact import NUMERIC_SECTIONS, validate_artifact
from repro.obs.regress import (
    RULES,
    check_kernel_consistency,
    compare_artifacts,
    main,
)

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def make_artifact(**overrides):
    art = build_artifact(
        "gate",
        params={"graph": "rmat-s7", "threads": 8, "backend": "sim"},
        counters={"ops.row_merges": 522, "ops.edge_relaxations": 15525},
        timings={"virtual.total": 1000.0, "wall.elapsed": 0.25},
        gauges={"sim.utilization": 0.9},
    )
    for section, values in overrides.items():
        art[section] = {**art[section], **values}
    return art


class TestCompare:
    def test_identical_artifacts_pass(self):
        base = make_artifact()
        regressions, _ = compare_artifacts(base, copy.deepcopy(base))
        assert regressions == []

    def test_counter_increase_fails(self):
        cur = make_artifact(counters={"ops.row_merges": 523})
        regressions, _ = compare_artifacts(make_artifact(), cur)
        assert any("ops.row_merges" in r and "up" in r for r in regressions)

    def test_counter_decrease_also_fails_stale_baseline(self):
        cur = make_artifact(counters={"ops.row_merges": 500})
        regressions, _ = compare_artifacts(make_artifact(), cur)
        assert any("down" in r for r in regressions)

    def test_missing_counter_fails(self):
        cur = make_artifact()
        del cur["counters"]["ops.edge_relaxations"]
        regressions, _ = compare_artifacts(make_artifact(), cur)
        assert any("missing" in r for r in regressions)

    def test_new_counter_is_a_note_not_a_regression(self):
        cur = make_artifact(counters={"ops.flag_hits": 42})
        regressions, notes = compare_artifacts(make_artifact(), cur)
        assert regressions == []
        assert any("ops.flag_hits" in n for n in notes)

    def test_virtual_timing_within_tolerance_passes(self):
        cur = make_artifact(timings={"virtual.total": 1099.0})
        regressions, _ = compare_artifacts(make_artifact(), cur)
        assert regressions == []

    def test_virtual_timing_beyond_tolerance_fails(self):
        cur = make_artifact(timings={"virtual.total": 1101.0})
        regressions, _ = compare_artifacts(make_artifact(), cur)
        assert any("virtual.total" in r for r in regressions)

    def test_faster_is_never_a_regression(self):
        cur = make_artifact(timings={"virtual.total": 1.0})
        regressions, _ = compare_artifacts(make_artifact(), cur)
        assert regressions == []

    def test_wall_time_ignored_by_default(self):
        cur = make_artifact(timings={"wall.elapsed": 9999.0})
        regressions, notes = compare_artifacts(make_artifact(), cur)
        assert regressions == []
        assert any("wall.elapsed" in n for n in notes)

    def test_changed_param_fails_loudly(self):
        cur = make_artifact(params={"threads": 16})
        regressions, notes = compare_artifacts(make_artifact(), cur)
        # exactly ONE regression: the artifacts are incomparable — the
        # per-counter diffs that could never match must not pile on
        assert len(regressions) == 1
        assert "different solver configurations" in regressions[0]
        assert "threads" in regressions[0]
        assert "regenerate the baseline" in regressions[0]
        # per-key detail is demoted to the notes
        assert any("param threads" in n for n in notes)

    def test_incomparable_artifacts_skip_counter_diffs(self):
        cur = make_artifact(
            params={"algorithm": "johnson"},
            counters={"ops.row_merges": 1, "ops.edge_relaxations": 2},
        )
        base = make_artifact(params={"algorithm": "parapsp"})
        regressions, notes = compare_artifacts(base, cur)
        assert len(regressions) == 1
        assert not any(r.startswith("counters ") for r in regressions)
        assert any("comparison skipped" in n for n in notes)

    def test_ignore_excludes_key_from_gating(self):
        cur = make_artifact(counters={"ops.row_merges": 9999})
        regressions, notes = compare_artifacts(
            make_artifact(), cur, ignore=["ops.row_merges"]
        )
        assert regressions == []
        assert any("ignored" in n for n in notes)

    def test_gauge_drift_is_a_note(self):
        cur = make_artifact(gauges={"sim.utilization": 0.5})
        regressions, notes = compare_artifacts(make_artifact(), cur)
        assert regressions == []
        assert any("sim.utilization" in n for n in notes)

    def test_schema_mismatch_raises(self):
        cur = make_artifact()
        cur["schema"] = "repro.obs.bench/999"
        with pytest.raises(ValueError):
            compare_artifacts(make_artifact(), cur)

    def test_invalid_artifact_raises(self):
        cur = make_artifact()
        del cur["counters"]
        with pytest.raises(ValueError):
            compare_artifacts(make_artifact(), cur)


def traced_artifact(**fractions):
    summary = {
        "trace.makespan": 1000.0,
        "trace.lock_wait_fraction": 0.05,
        "trace.idle_fraction": 0.10,
        "trace.overhead_fraction": 0.08,
        "trace.compute_fraction": 0.77,
        "trace.phase.sweep.idle_fraction": 0.02,
        "trace.critical_path.length": 980.0,
    }
    summary.update(fractions)
    art = make_artifact()
    art["trace_summary"] = summary
    return art


class TestTraceSummaryGate:
    def test_identical_passes(self):
        regressions, _ = compare_artifacts(
            traced_artifact(), traced_artifact()
        )
        assert regressions == []

    def test_fraction_growth_past_atol_fails(self):
        cur = traced_artifact(**{"trace.idle_fraction": 0.14})
        regressions, _ = compare_artifacts(traced_artifact(), cur)
        assert any("trace.idle_fraction" in r for r in regressions)

    def test_growth_within_atol_passes(self):
        cur = traced_artifact(**{"trace.idle_fraction": 0.11})
        regressions, _ = compare_artifacts(traced_artifact(), cur)
        assert regressions == []

    def test_fraction_drop_is_an_improvement(self):
        cur = traced_artifact(**{"trace.lock_wait_fraction": 0.0})
        regressions, notes = compare_artifacts(traced_artifact(), cur)
        assert regressions == []
        assert any("trace.lock_wait_fraction" in n for n in notes)

    def test_phase_scoped_fractions_also_gate(self):
        cur = traced_artifact(**{"trace.phase.sweep.idle_fraction": 0.30})
        regressions, _ = compare_artifacts(traced_artifact(), cur)
        assert any(
            "trace.phase.sweep.idle_fraction" in r for r in regressions
        )

    def test_makespan_and_critical_path_are_notes(self):
        cur = traced_artifact(**{
            "trace.makespan": 2000.0,
            "trace.critical_path.length": 1900.0,
        })
        regressions, notes = compare_artifacts(traced_artifact(), cur)
        assert regressions == []
        assert any("trace.makespan" in n for n in notes)

    def test_summary_dropped_from_current_fails(self):
        regressions, _ = compare_artifacts(traced_artifact(), make_artifact())
        assert any("trace_summary" in r for r in regressions)

    def test_baseline_without_summary_is_a_note(self):
        regressions, notes = compare_artifacts(
            make_artifact(), traced_artifact()
        )
        assert regressions == []
        assert any("trace_summary" in n for n in notes)

    def test_gated_key_missing_from_current_fails(self):
        cur = traced_artifact()
        del cur["trace_summary"]["trace.idle_fraction"]
        regressions, _ = compare_artifacts(traced_artifact(), cur)
        assert any(
            "trace.idle_fraction" in r and "missing" in r
            for r in regressions
        )

    def test_ignore_excludes_trace_key(self):
        cur = traced_artifact(**{"trace.idle_fraction": 0.5})
        regressions, notes = compare_artifacts(
            traced_artifact(), cur, ignore=["trace.idle_fraction"]
        )
        assert regressions == []
        assert any("ignored" in n for n in notes)


def consistent_kernel_counters(**overrides):
    """A counter set satisfying every cross-layer invariant.

    12 pops: 4 merges and 8 relax events, 40 attempted arcs, 9
    improved.
    """
    counters = {
        "ops.pops": 12,
        "ops.row_merges": 4,
        "ops.edge_relaxations": 40,
        "ops.edge_improvements": 9,
        "kernel.merge_row.calls": 4,
        "kernel.relax.calls": 8,
        "kernel.relax.attempted": 40,
        "kernel.relax.improved": 9,
    }
    counters.update(overrides)
    return counters


class TestKernelConsistency:
    def test_consistent_counters_pass(self):
        assert check_kernel_consistency(consistent_kernel_counters()) == []

    def test_no_kernel_counters_skips(self):
        assert check_kernel_consistency({"ops.row_merges": 99}) == []

    def test_merge_count_mismatch_detected(self):
        problems = check_kernel_consistency(
            consistent_kernel_counters(**{"kernel.merge_row.calls": 2})
        )
        assert any("ops.row_merges" in p for p in problems)

    def test_attempted_mismatch_detected(self):
        problems = check_kernel_consistency(
            consistent_kernel_counters(**{"kernel.relax.attempted": 24})
        )
        assert any("ops.edge_relaxations" in p for p in problems)

    def test_improved_mismatch_detected(self):
        problems = check_kernel_consistency(
            consistent_kernel_counters(**{"kernel.relax.improved": 10})
        )
        assert any("ops.edge_improvements" in p for p in problems)

    def test_relax_events_over_pop_budget_detected(self):
        problems = check_kernel_consistency(
            consistent_kernel_counters(**{"kernel.relax.calls": 9})
        )
        assert any("exceeds" in p for p in problems)

    def test_heap_stale_pops_leave_slack(self):
        # lazy heap deletion: pops exceed kernel events — allowed
        counters = consistent_kernel_counters(**{"ops.pops": 20})
        assert check_kernel_consistency(counters) == []

    def test_compare_artifacts_gates_on_inconsistency(self):
        base = make_artifact()
        cur = make_artifact(
            counters=consistent_kernel_counters(
                **{"kernel.merge_row.calls": 2}
            )
        )
        cur_base = make_artifact(
            counters=consistent_kernel_counters(
                **{"kernel.merge_row.calls": 2}
            )
        )
        regressions, _ = compare_artifacts(cur_base, cur)
        assert any("kernel consistency" in r for r in regressions)
        regressions, _ = compare_artifacts(base, copy.deepcopy(base))
        assert regressions == []

    def test_real_sweep_counters_are_consistent(self, small_weighted):
        """End to end: a real one-worker run satisfies the
        invariants."""
        import numpy as np

        from repro.core.sweep import run_sweep
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        n = small_weighted.num_vertices
        with use_registry(registry):
            outcome = run_sweep(small_weighted, np.arange(n))
        counters = registry.counters()
        total = outcome.total_ops()
        counters.update(
            {f"ops.{k}": v for k, v in total.as_dict().items()}
        )
        assert check_kernel_consistency(counters) == []


class TestMainExitCodes:
    def write(self, tmp_path, name, art):
        path = str(tmp_path / name)
        write_artifact(path, art)
        return path

    def test_exit_zero_on_match(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", make_artifact())
        cur = self.write(tmp_path, "cur.json", make_artifact())
        assert main([base, cur]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_exit_one_on_injected_count_regression(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", make_artifact())
        cur = self.write(
            tmp_path,
            "cur.json",
            make_artifact(counters={"ops.row_merges": 532}),
        )
        assert main([base, cur]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_two_on_missing_file(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", make_artifact())
        assert main([base, str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_exit_two_on_schema_mismatch(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", make_artifact())
        other = make_artifact()
        other["schema"] = "repro.obs.bench/9"
        cur = self.write(tmp_path, "cur.json", other)
        assert main([base, cur]) == 2
        assert "schema mismatch" in capsys.readouterr().err


class TestRules:
    def test_rules_cover_exactly_the_numeric_sections(self):
        assert {rule.section for rule in RULES} == set(NUMERIC_SECTIONS)

    def test_every_section_ends_with_a_catch_all(self):
        for section in NUMERIC_SECTIONS:
            rows = [rule for rule in RULES if rule.section == section]
            assert rows[-1].patterns == ("*",), section

    @pytest.mark.parametrize("section", NUMERIC_SECTIONS)
    def test_validate_rejects_nan_in_every_numeric_section(self, section):
        art = make_artifact()
        art[section] = {**art.get(section, {}), "x.value": float("nan")}
        assert any(section in p for p in validate_artifact(art))


@pytest.mark.parametrize(
    "baseline, section, key",
    [
        ("BENCH_smoke.json", "timings", "virtual.dijkstra"),
        ("BENCH_serve.json", "serve", "serve.opt.hit_rate"),
        ("BENCH_serve.json", "serve", "serve.alt.mean_ms"),
        ("BENCH_serve.json", "serve_slo", "serve.slo.point.burn_rate"),
    ],
)
def test_nan_is_bad_input_not_a_pass(tmp_path, capsys, baseline, section,
                                     key):
    base = load_artifact(str(BASELINES / baseline))
    cur = copy.deepcopy(base)
    cur[section][key] = float("nan")
    with pytest.raises(ValueError, match="nan"):
        compare_artifacts(base, cur)
    path = tmp_path / "cur.json"
    path.write_text(json.dumps(cur))
    assert main([str(BASELINES / baseline), str(path), "--quiet"]) == 2
    assert key in capsys.readouterr().err

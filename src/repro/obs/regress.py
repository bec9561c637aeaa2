"""Artifact comparator: the CI perf gate.

``python -m repro.obs.regress baseline.json current.json`` diffs two
``BENCH_*.json`` artifacts and exits non-zero on a regression:

* **params** — workload identity must match exactly.  Artifacts from
  different solvers or configs are *incomparable*: any mismatch fails
  with one message (per-key detail in the notes) and skips every other
  section, whose diffs could never agree anyway;
* every section in :data:`~repro.obs.artifact.NUMERIC_SECTIONS` is
  gated key by key through :data:`RULES`.  A section or gated key that
  the baseline has and the current artifact lacks fails; a key new in
  the current artifact is a note unless its rule is ``closed``;
* **kernel consistency** — ``kernel.*`` counters must agree with the
  ``ops.*`` totals (:func:`check_kernel_consistency`).

``--ignore KEY`` (repeatable) demotes one key of any section to a
note.  Exit codes: 0 = no regression, 1 = regression, 2 = bad input.
"""

from __future__ import annotations

import argparse
import sys
from fnmatch import fnmatchcase
from typing import Any, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .artifact import NUMERIC_SECTIONS, load_artifact, validate_artifact

__all__ = ["RULES", "check_kernel_consistency", "compare_artifacts", "main"]


class Rule(NamedTuple):
    """One row of :data:`RULES`."""

    section: str
    patterns: Tuple[str, ...]
    kind: str
    tol: float
    reason: str


#: ``exact`` fails on any change; ``closed`` is exact and also fails on a
#: key new in the current artifact; ``up`` may rise by ``tol`` relative,
#: ``up_abs`` by ``tol`` absolute; ``down_abs`` may fall by ``tol``
#: absolute; ``note`` is reported, never gated
EXACT, CLOSED, UP, UP_ABS, DOWN_ABS, NOTE = (
    "exact", "closed", "up", "up_abs", "down_abs", "note"
)

#: the gating policy: for each key of each numeric section, the first
#: row whose section matches and one of whose fnmatch patterns matches
#: the key decides.  Every section ends with a ``*`` row.
RULES: Tuple[Rule, ...] = (
    Rule("counters", ("*",), EXACT, 0.0,
         "op counts must match the baseline exactly"),
    Rule("timings", ("wall.*",), NOTE, 0.0,
         "host wall-clock time is noise, not a gate"),
    Rule("timings", ("*",), UP, 0.10,
         "virtual time is deterministic"),
    Rule("gauges", ("*",), NOTE, 0.0,
         "occupancy and utilization are reported, never gated"),
    Rule("trace_summary",
         ("*lock_wait_fraction", "*idle_fraction", "*overhead_fraction"),
         UP_ABS, 0.02,
         "more lock-wait, idle or overhead is the regression"),
    Rule("trace_summary", ("*",), NOTE, 0.0,
         "makespans and critical-path composition shift with workload"),
    Rule("faults", ("faults.virtual.*",), UP, 0.10,
         "slower virtual recovery is the regression"),
    Rule("faults", ("*",), EXACT, 0.0,
         "injected-fault event counts must match exactly"),
    Rule("serve", ("*max_abs_error",), EXACT, 0.0,
         "error bounds are part of the answer contract"),
    Rule("serve", ("*store_bytes", "*bytes_loaded", "*_ms"), UP, 0.10,
         "byte totals and virtual latencies gate upward"),
    Rule("serve", ("*hit_rate", "*speedup"), DOWN_ABS, 0.02,
         "a falling hit rate or speedup is the regression"),
    Rule("serve", ("*",), EXACT, 0.0,
         "seeded replay event counts must match exactly"),
    Rule("serve_latency_hist", ("*",), CLOSED, 0.0,
         "the virtual replay's latency distribution changed"),
    Rule("serve_slo", ("*burn_rate",), UP, 0.0,
         "the same traffic now burns its error budget faster"),
    Rule("serve_slo", ("*",), EXACT, 0.0,
         "SLO parameters and violation counts gate exactly"),
    Rule("update", ("*",), EXACT, 0.0,
         "the update bench is deterministic and gates exactly"),
    Rule("dist", ("*fingerprint",), EXACT, 0.0,
         "routed answers must match the single-node store bitwise"),
    Rule("dist", ("*_ms", "*network_bytes", "*makespan", "*_us"), UP, 0.10,
         "network volume, makespans and routed latencies gate upward"),
    Rule("dist", ("*",), EXACT, 0.0,
         "failover/loss/rebalance event counts gate exactly"),
)


def check_kernel_consistency(
    counters: Mapping[str, float],
) -> List[str]:
    """Cross-check ``kernel.*`` call accounting against ``ops.*`` totals.

    The row kernels (or the native sweep, which counts under the same
    names) instrument the *same logical operations* that the
    per-source ``OpCounts`` record, so on any artifact that carries
    both families the following must hold:

    * every row merge went through exactly one kernel call::

        kernel.merge_row.calls == ops.row_merges

    * every attempted arc relaxation was issued by exactly one kernel
      call::

        kernel.relax.attempted == ops.edge_relaxations

      and likewise for the improved counts vs
      ``ops.edge_improvements``;

    * every relax event corresponds to one non-merge pop::

        kernel.relax.calls <= ops.pops - ops.row_merges

      (equality for the FIFO discipline; the heap's lazy deletion pops
      stale entries that trigger no kernel call, hence ``<=``).

    Artifacts without ``kernel.*`` counters (instrumentation disabled,
    or pre-dating the kernel layer) are skipped.  Returns a list of
    human-readable violations (empty = consistent).
    """
    if not any(key.startswith("kernel.") for key in counters):
        return []

    def got(key: str) -> float:
        return counters.get(key, 0)

    problems: List[str] = []

    def require(label: str, actual: float, op_key: str) -> None:
        if op_key not in counters:
            return
        expected = counters[op_key]
        if actual != expected:
            problems.append(
                f"kernel consistency: {label} = {actual:g} but "
                f"{op_key} = {expected:g} (must be equal)"
            )

    require(
        "kernel.merge_row.calls", got("kernel.merge_row.calls"),
        "ops.row_merges",
    )
    require(
        "kernel.relax.attempted", got("kernel.relax.attempted"),
        "ops.edge_relaxations",
    )
    require(
        "kernel.relax.improved", got("kernel.relax.improved"),
        "ops.edge_improvements",
    )
    if "ops.pops" in counters and "ops.row_merges" in counters:
        relax_events = got("kernel.relax.calls")
        budget = counters["ops.pops"] - counters["ops.row_merges"]
        if relax_events > budget:
            problems.append(
                "kernel consistency: kernel.relax.calls = "
                f"{relax_events:g} exceeds "
                f"ops.pops - ops.row_merges = {budget:g}"
            )
    return problems


def compare_artifacts(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    ignore: Sequence[str] = (),
) -> Tuple[List[str], List[str]]:
    """Compare two artifacts; returns ``(regressions, notes)``.

    ``ignore`` lists keys of any section (params included) excluded
    from gating; they are still mentioned in the notes so nothing
    silently disappears.
    """
    regressions: List[str] = []
    notes: List[str] = []
    ignored = set(ignore)

    for art, label in ((baseline, "baseline"), (current, "current")):
        problems = validate_artifact(art)
        if problems:
            raise ValueError(f"{label} artifact invalid: "
                             + "; ".join(problems))

    if baseline["schema"] != current["schema"]:
        raise ValueError(
            f"schema mismatch: baseline {baseline['schema']!r} "
            f"vs current {current['schema']!r}"
        )

    mismatched = _compare_params(
        baseline["params"], current["params"], ignored, notes
    )
    if mismatched:
        # Different solver / workload identity: every other section is a
        # function of those params, so key-by-key diffs would drown the
        # real problem in mismatches that can never agree.  Fail with
        # one actionable message instead.
        regressions.append(
            "artifacts come from different solver configurations "
            f"(params differ: {', '.join(mismatched)}); counters from "
            "different configs can never match — regenerate the baseline "
            "with the same algorithm/backend/workload as the current run"
        )
        notes.append(
            "section comparison skipped: artifacts are not comparable"
        )
        return regressions, notes
    for section in NUMERIC_SECTIONS:
        _compare_section(
            section,
            baseline.get(section),
            current.get(section),
            ignored,
            regressions,
            notes,
        )
    for art, label in ((baseline, "baseline"), (current, "current")):
        regressions.extend(
            f"{label}: {problem}"
            for problem in check_kernel_consistency(art["counters"])
        )
    return regressions, notes


def _compare_params(
    base: Mapping[str, Any],
    cur: Mapping[str, Any],
    ignored: set,
    notes: List[str],
) -> List[str]:
    """Check workload identity; returns the mismatched param keys.

    Per-key detail goes to the notes — the caller folds any mismatch
    into one summary regression, because two artifacts from different
    configs are *incomparable*, not "wrong on every counter".
    """
    mismatched: List[str] = []
    for key in sorted(set(base) | set(cur)):
        if key in ignored:
            notes.append(f"param {key}: ignored")
            continue
        if key not in cur:
            mismatched.append(key)
            notes.append(f"param {key} missing from current artifact")
        elif key not in base:
            notes.append(f"param {key} new in current: {cur[key]!r}")
        elif base[key] != cur[key]:
            mismatched.append(key)
            notes.append(
                f"param {key}: baseline {base[key]!r} vs "
                f"current {cur[key]!r}"
            )
    return mismatched


def _rule(section: str, key: str) -> Rule:
    return next(
        rule for rule in RULES
        if rule.section == section
        and any(fnmatchcase(key, pattern) for pattern in rule.patterns)
    )


def _failure(rule: Rule, base: float, cur: float) -> Optional[str]:
    """How ``base -> cur`` breaks ``rule``; ``None`` when it passes."""
    if rule.kind in (EXACT, CLOSED):
        if cur != base:
            return "up" if cur > base else "down"
    elif rule.kind == UP:
        if cur > base * (1.0 + rule.tol):
            pct = (cur - base) / base * 100.0 if base else float("inf")
            return f"+{pct:.1f}%, tolerance {rule.tol:.0%}"
    elif rule.kind == UP_ABS:
        if cur > base + rule.tol:
            return f"+{cur - base:.4f}, tolerance {rule.tol:g} absolute"
    elif rule.kind == DOWN_ABS:
        if cur < base - rule.tol:
            return (f"-{base - cur:.4f}, tolerance {rule.tol:g} absolute, "
                    "downward")
    return None


def _compare_section(
    section: str,
    base: Optional[Mapping[str, float]],
    cur: Optional[Mapping[str, float]],
    ignored: set,
    regressions: List[str],
    notes: List[str],
) -> None:
    """Gate one numeric section key by key through :data:`RULES`."""
    if base is None:
        if cur:
            notes.append(
                f"{section} section new in current (no baseline to gate "
                "against)"
            )
        return
    if cur is None:
        regressions.append(
            f"{section} section present in baseline but missing from "
            "current artifact"
        )
        return
    for key in sorted(set(base) | set(cur)):
        rule = _rule(section, key)
        if key in ignored:
            notes.append(f"{section} {key}: ignored")
        elif key not in cur:
            if rule.kind != NOTE:
                regressions.append(
                    f"{section} {key} missing from current artifact"
                )
        elif key not in base:
            new = f"{section} {key} new in current: {cur[key]:g}"
            if rule.kind == CLOSED:
                regressions.append(f"{new} ({rule.reason})")
            else:
                notes.append(new)
        elif base[key] != cur[key]:
            change = f"{section} {key}: {base[key]:g} -> {cur[key]:g}"
            why = _failure(rule, base[key], cur[key])
            if why is None:
                gated = "not gated" if rule.kind == NOTE else "ok"
                notes.append(f"{change} ({gated})")
            else:
                regressions.append(f"{change} ({why}; {rule.reason})")


def _report(regressions: List[str], notes: List[str], verbose: bool) -> None:
    if verbose and notes:
        for note in notes:
            print(f"  note: {note}")
    if regressions:
        print(f"REGRESSION ({len(regressions)} finding(s)):")
        for item in regressions:
            print(f"  !! {item}")
    else:
        print("no regression: counters exact, timings within tolerance")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.regress",
        description="diff two BENCH_*.json artifacts; non-zero on "
        "regression (see repro.obs.regress.RULES)",
    )
    parser.add_argument("baseline", help="baseline artifact (committed)")
    parser.add_argument("current", help="freshly produced artifact")
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="KEY",
        help="exclude a key of any section from gating (repeatable)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-key notes"
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_artifact(args.baseline)
        current = load_artifact(args.current)
        regressions, notes = compare_artifacts(
            baseline, current, ignore=args.ignore
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"baseline: {args.baseline} ({baseline['name']})")
    print(f"current : {args.current} ({current['name']})")
    _report(regressions, notes, verbose=not args.quiet)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

"""Pin the perf gate's per-key semantics on every committed baseline.

``policy`` restates, independently of the comparator, what the gate
must do with each key; every key of every numeric section is then
mutated the way its policy must reject (and, where one exists, the way
it must accept) and compared against the untouched baseline.
"""

from pathlib import Path

import pytest

from repro.obs import load_artifact
from repro.obs.regress import compare_artifacts

BASELINES = sorted(
    (Path(__file__).resolve().parents[2] / "benchmarks" / "baselines")
    .glob("BENCH_*.json")
)


def policy(section, key):
    """exact / up (10% relative) / up_abs (0.02) / down (0.02) /
    burn (any rise) / note (never gated)."""
    if section in ("counters", "update", "serve_latency_hist"):
        return "exact"
    if section == "gauges":
        return "note"
    if section == "timings":
        return "note" if key.startswith("wall.") else "up"
    if section == "trace_summary":
        gated = ("lock_wait_fraction", "idle_fraction", "overhead_fraction")
        return "up_abs" if key.endswith(gated) else "note"
    if section == "faults":
        return "up" if key.startswith("faults.virtual.") else "exact"
    if section == "serve":
        if key.endswith("max_abs_error"):
            return "exact"
        if key.endswith(("store_bytes", "bytes_loaded", "_ms")):
            return "up"
        if key.endswith(("hit_rate", "speedup")):
            return "down"
        return "exact"
    if section == "serve_slo":
        return "burn" if key.endswith("burn_rate") else "exact"
    if section == "dist":
        if key.endswith("fingerprint"):
            return "exact"
        if key.endswith(("_ms", "network_bytes", "makespan", "_us")):
            return "up"
        return "exact"
    raise AssertionError(f"no gating policy for section {section!r}")


REJECT = {
    "exact": lambda v: v + 1,
    "up": lambda v: v * 1.2 if v > 0 else v + 1,
    "up_abs": lambda v: v + 0.03,
    "down": lambda v: v - 0.03,
    "burn": lambda v: v + 1e-3,
}

ACCEPT = {
    "up": lambda v: v * 0.5,
    "up_abs": lambda v: v - 0.03,
    "down": lambda v: v + 0.03,
    "burn": lambda v: v - 1e-3,
    "note": lambda v: v * 10 + 1,
}


def numeric_keys(artifact):
    for section, values in artifact.items():
        if section in ("env", "params") or not isinstance(values, dict):
            continue
        for key in sorted(values):
            yield section, key, policy(section, key)


def with_value(artifact, section, key, value):
    out = dict(artifact)
    out[section] = {**artifact[section], key: value}
    return out


@pytest.fixture(params=BASELINES, ids=lambda p: p.name)
def baseline(request):
    return load_artifact(str(request.param))


def test_baselines_found():
    assert len(BASELINES) >= 7


def test_self_compare_passes(baseline):
    regressions, _ = compare_artifacts(baseline, baseline)
    assert regressions == []


def test_rejected_mutation_fails_and_names_key(baseline):
    escaped = []
    for section, key, kind in numeric_keys(baseline):
        if kind not in REJECT:
            continue
        value = REJECT[kind](baseline[section][key])
        regressions, _ = compare_artifacts(
            baseline, with_value(baseline, section, key, value)
        )
        if not any(key in r for r in regressions):
            escaped.append(f"{section}[{key}] ({kind}) -> {value!r}")
        dropped = dict(baseline)
        dropped[section] = {
            k: v for k, v in baseline[section].items() if k != key
        }
        regressions, _ = compare_artifacts(baseline, dropped)
        if not any(key in r for r in regressions):
            escaped.append(f"{section}[{key}] ({kind}) dropped")
    assert escaped == []


def test_improving_mutation_passes(baseline):
    flagged = []
    for section, key, kind in numeric_keys(baseline):
        if kind not in ACCEPT:
            continue
        value = ACCEPT[kind](baseline[section][key])
        regressions, _ = compare_artifacts(
            baseline, with_value(baseline, section, key, value)
        )
        if regressions:
            flagged.append(f"{section}[{key}] ({kind}) -> {value!r}")
    assert flagged == []

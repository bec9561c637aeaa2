"""Every committed serving baseline is reproduced by its scenario.

Each ``BENCH_serve*.json`` / ``BENCH_update.json`` / ``BENCH_dist.json``
under ``benchmarks/baselines`` is what CI gates its smoke against; this
runs the matching scenario at CI's settings (the module defaults) and
holds it to the same :func:`~repro.obs.regress.compare_artifacts` gate,
so a change to the bench shows up in the tier-1 suite rather than only
in CI.
"""

from pathlib import Path

import pytest

from repro.obs import load_artifact
from repro.obs.regress import compare_artifacts
from repro.serve.bench import run_dist_smoke, run_serve_smoke, run_update_smoke

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

SCENARIOS = [
    ("BENCH_serve.json", run_serve_smoke, {"codec": "raw"}),
    ("BENCH_serve_f4.json", run_serve_smoke, {"codec": "f4"}),
    ("BENCH_serve_u16q.json", run_serve_smoke, {"codec": "u16q"}),
    ("BENCH_update.json", run_update_smoke, {}),
    ("BENCH_dist.json", run_dist_smoke, {}),
]


@pytest.mark.parametrize(
    "name, run, kwargs", SCENARIOS, ids=[name for name, _, _ in SCENARIOS]
)
def test_scenario_reproduces_committed_baseline(name, run, kwargs):
    baseline = load_artifact(str(BASELINES / name))
    artifact, _ = run(**kwargs)
    assert artifact["name"] == baseline["name"]
    regressions, _ = compare_artifacts(baseline, artifact)
    assert regressions == []

"""Deterministic smoke workload → ``BENCH_smoke.json``.

CI's ``bench-smoke`` job runs this module, then gates with
:mod:`repro.obs.regress` against the committed baseline
(``benchmarks/baselines/BENCH_smoke.json``).  Everything gated is
machine-independent: the R-MAT generator is seeded, ParAPSP on the SIM
backend is bit-reproducible, so operation counts and virtual timings
are identical on every host.  Wall-clock is recorded but not gated.

Regenerate the baseline after an *intentional* perf-relevant change::

    PYTHONPATH=src python -m repro.obs.smoke \
        --out benchmarks/baselines/BENCH_smoke.json
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.runner import solve_apsp
from ..faults import KILL, FaultPlan
from ..graphs.rmat import rmat
from .artifact import artifact_from_apsp_result, write_artifact
from .metrics import MetricsRegistry, use_registry

__all__ = ["run_smoke", "main"]

#: workload identity — bump ``WORKLOAD_REV`` when the knobs change so a
#: stale baseline fails on params instead of on mysterious counters
WORKLOAD_REV = 1
DEFAULT_SCALE = 7
DEFAULT_EDGE_FACTOR = 8
DEFAULT_THREADS = 8
DEFAULT_SEED = 5

#: the smoke fault plan: kill simulated worker 1 after its second work
#: claim.  Deterministic (claim-counted), so the deaths / requeued /
#: recovery numbers it produces are exactly reproducible on every host.
SMOKE_FAULT_PLAN = FaultPlan.single(KILL, worker=1, after_claims=2)


def run_smoke(
    *,
    scale: int = DEFAULT_SCALE,
    edge_factor: int = DEFAULT_EDGE_FACTOR,
    threads: int = DEFAULT_THREADS,
    seed: int = DEFAULT_SEED,
    algorithm: str = "parapsp",
) -> Tuple[Dict[str, object], MetricsRegistry, object]:
    """Run the smoke workload; returns ``(artifact, registry, trace)``.

    ``trace`` is the unified execution trace
    (:class:`repro.trace.Trace`) of the traced SIM run; its analyzer
    summary is folded into the artifact's ``trace_summary`` section.

    A second run replays the same workload under
    :data:`SMOKE_FAULT_PLAN` (a simulated worker kill) and must come
    back bitwise-identical; its injection counts and virtual recovery
    cost become the artifact's ``faults`` section, so CI gates the
    crash-recovery path alongside the op counts.
    """
    from ..trace import analyze_trace, trace_from_apsp_result

    graph = rmat(
        scale,
        edge_factor=edge_factor,
        seed=seed,
        name=f"rmat-s{scale}-ef{edge_factor}",
    )
    registry = MetricsRegistry()
    t0 = time.perf_counter()
    with use_registry(registry):
        result = solve_apsp(
            graph,
            algorithm=algorithm,
            num_threads=threads,
            backend="sim",
            trace=True,
        )
    wall = time.perf_counter() - t0

    # replay under the fault plan in an isolated registry: recovery must
    # reproduce the exact distance matrix, and what it cost is gated
    fault_registry = MetricsRegistry()
    with use_registry(fault_registry):
        faulted = solve_apsp(
            graph,
            algorithm=algorithm,
            num_threads=threads,
            backend="sim",
            fault_plan=SMOKE_FAULT_PLAN,
        )
    if not np.array_equal(result.dist, faulted.dist):
        raise RuntimeError(
            "fault-injection smoke failed: recovered distance matrix "
            "differs from the fault-free run"
        )
    faults: Dict[str, float] = {
        key: value
        for key, value in fault_registry.snapshot()["counters"].items()
        if key.startswith("faults.")
    }
    faults["faults.virtual.dijkstra"] = float(faulted.phase_times.dijkstra)
    faults["faults.virtual.total"] = float(faulted.total_time)

    # the simulator is deterministic, so the unified-trace attribution
    # (idle / lock-wait / overhead fractions) is as gateable as the op
    # counts; regress gates the fractions against the baseline
    trace = trace_from_apsp_result(result)
    artifact = artifact_from_apsp_result(
        "smoke",
        graph,
        result,
        registry=registry,
        wall_seconds=wall,
        extra_params={
            "workload_rev": WORKLOAD_REV,
            "rmat_scale": scale,
            "rmat_edge_factor": edge_factor,
            "rmat_seed": seed,
        },
        trace_summary=analyze_trace(trace).summary(),
        faults=faults,
    )
    return artifact, registry, trace


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.smoke",
        description="run the deterministic smoke benchmark and write its "
        "BENCH artifact",
    )
    parser.add_argument(
        "--out", default="BENCH_smoke.json", help="artifact path to write"
    )
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument(
        "--edge-factor", type=int, default=DEFAULT_EDGE_FACTOR
    )
    parser.add_argument("--threads", type=int, default=DEFAULT_THREADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--algorithm", default="parapsp", help="solver to smoke-test"
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also write the run's Chrome-trace JSON (Perfetto) here",
    )
    args = parser.parse_args(argv)
    artifact, _, trace = run_smoke(
        scale=args.scale,
        edge_factor=args.edge_factor,
        threads=args.threads,
        seed=args.seed,
        algorithm=args.algorithm,
    )
    path = write_artifact(args.out, artifact)
    counters = artifact["counters"]
    print(f"wrote {path}")
    print(
        "  merges={:d} relaxations={:d} virtual_total={:g}".format(
            int(counters["ops.row_merges"]),
            int(counters["ops.edge_relaxations"]),
            artifact["timings"]["virtual.total"],
        )
    )
    summary = artifact["trace_summary"]
    print(
        "  trace: compute={:.1%} lock-wait={:.1%} overhead={:.1%} "
        "idle={:.1%}".format(
            summary["trace.compute_fraction"],
            summary["trace.lock_wait_fraction"],
            summary["trace.overhead_fraction"],
            summary["trace.idle_fraction"],
        )
    )
    faults = artifact["faults"]
    print(
        "  faults: deaths={:d} requeued={:d} recovery_virtual={:g}".format(
            int(faults.get("faults.sim.deaths", 0)),
            int(faults.get("faults.sim.requeued_iterations", 0)),
            faults["faults.virtual.dijkstra"],
        )
    )
    if args.trace_out:
        from ..trace import write_chrome

        print(f"wrote {write_chrome(args.trace_out, trace)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

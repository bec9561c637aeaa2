"""Command-line interface: ``repro-apsp`` / ``python -m repro``.

Subcommands
-----------
``solve``    — run one APSP algorithm on a dataset or edge-list file.
``trace``    — unified execution trace: Perfetto JSON, report, Gantt.
``order``    — run one ordering procedure and report its statistics.
``analyze``  — APSP-derived network metrics (closeness, diameter, ...).
``paths``    — shortest path between two vertices (with the route).
``bench``    — regenerate paper tables/figures (the harness).
``store``    — build a sharded on-disk distance store (repro.serve).
``query``    — answer point/row/top-k queries from a distance store.
``dist``     — simulated multi-node cluster build (repro.dist).
``serve-bench`` — deterministic query-serving bench (BENCH artifact).
``monitor``  — tail / summarize / validate a telemetry event log.
``datasets`` — list the dataset registry.
``info``     — library and algorithm inventory.

``solve`` accepts ``--config cfg.json`` (a serialized
:class:`repro.config.SolverConfig`), making a run reproducible from one
artifact; explicit CLI flags override individual fields of the file.
``store``, ``query`` and ``serve-bench`` accept the serving analogue
(a serialized :class:`repro.config.ServeConfig`) the same way, and
``store`` / ``serve-bench`` can emit the resolved bundle with
``--save-config``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .analysis.tables import format_table
from .bench import experiment_ids, get_profile, run_many, save_report
from .config import ServeConfig, SolverConfig
from .core.registry import solver_names
from .core.runner import solve_apsp
from .graphs.datasets import dataset_info, dataset_names, load_dataset
from .graphs.degree import degree_array
from .graphs.io import read_edgelist
from .order import ORDERINGS, compute_order
from .serve import bench as serve_bench
from .serve import monitor as serve_monitor

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-apsp",
        description="ParAPSP: parallel all-pairs shortest paths "
        "(ICPP'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve APSP on a graph")
    _add_graph_source(solve)
    # solver flags default to None ("not given"): only given flags
    # override a --config file, whose absence means SolverConfig defaults
    solve.add_argument(
        "--algorithm", choices=solver_names(), default=None,
        help="solver (default parapsp)",
    )
    solve.add_argument(
        "--threads", type=int, default=None, help="thread count (default 1)"
    )
    solve.add_argument(
        "--backend",
        choices=("serial", "threads", "process", "sim"),
        default=None,
        help="execution backend (default serial)",
    )
    solve.add_argument(
        "--schedule",
        choices=("block", "static-cyclic", "dynamic"),
        default=None,
    )
    solve.add_argument("--out", help="write the distance matrix (.npy)")
    solve.add_argument(
        "--metrics",
        metavar="PATH",
        help="collect repro.obs metrics during the solve and write a "
        "schema-versioned BENCH artifact (JSON) to PATH",
    )
    solve.add_argument(
        "--fault-plan",
        metavar="PLAN",
        help="inject deterministic worker faults during the sweep: a "
        "JSON file/string or the compact DSL, e.g. "
        "\"kill:worker=1,after=2;stall:worker=0,for=0.1\" "
        "(see repro.faults)",
    )
    solve.add_argument(
        "--on-worker-death",
        choices=("retry", "raise"),
        default=None,
        help="recovery policy when a worker dies: re-execute only the "
        "lost sources (retry, the CLI default) or surface a "
        "BackendError (raise)",
    )
    solve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="bound each process-backend round; stragglers are "
        "terminated and handled by --on-worker-death",
    )
    solve.add_argument(
        "--config",
        metavar="CFG.JSON",
        help="load a serialized SolverConfig; explicit CLI flags "
        "override individual fields of the file",
    )
    solve.add_argument(
        "--save-config",
        metavar="CFG.JSON",
        help="write the fully-resolved SolverConfig of this run "
        "(reproduce later with --config)",
    )

    trace = sub.add_parser(
        "trace",
        help="unified execution trace (Chrome/Perfetto JSON, critical-path "
        "report, ASCII Gantt)",
    )
    _add_graph_source(trace)
    trace.add_argument(
        "--algorithm", choices=solver_names(), default="parapsp"
    )
    trace.add_argument("--threads", type=int, default=4)
    trace.add_argument(
        "--backend",
        choices=("sim", "serial", "threads", "process"),
        default="sim",
        help="'sim' traces the virtual-time simulator exactly; real "
        "backends record wall-clock repro.obs spans via TraceRecorder",
    )
    trace.add_argument(
        "--schedule",
        choices=("block", "static-cyclic", "dynamic"),
        default=None,
    )
    trace.add_argument(
        "--out", help="write Chrome-trace JSON here (open in ui.perfetto.dev)"
    )
    trace.add_argument(
        "--report",
        action="store_true",
        help="print the critical-path / contention attribution report",
    )
    trace.add_argument(
        "--gantt",
        action="store_true",
        help="print an ASCII Gantt of the unified timeline",
    )
    trace.add_argument(
        "--top-k", type=int, default=5,
        help="lock hotspots / stragglers to list in the report",
    )

    order = sub.add_parser("order", help="run an ordering procedure")
    order.add_argument("--dataset", choices=dataset_names(), required=True)
    order.add_argument("--scale", type=int, default=None)
    order.add_argument("--method", choices=ORDERINGS, default="multilists")
    order.add_argument("--threads", type=int, default=1)

    analyze = sub.add_parser(
        "analyze", help="network metrics from the APSP matrix"
    )
    _add_graph_source(analyze)
    analyze.add_argument("--top", type=int, default=5,
                         help="how many top-centrality vertices to list")

    paths = sub.add_parser("paths", help="shortest path between two vertices")
    _add_graph_source(paths)
    paths.add_argument("--source", type=int, required=True)
    paths.add_argument("--target", type=int, required=True)

    bench = sub.add_parser("bench", help="regenerate paper tables/figures")
    bench.add_argument(
        "--experiment",
        "-e",
        action="append",
        choices=experiment_ids(),
        help="experiment id (repeatable); default: all",
    )
    bench.add_argument(
        "--profile", choices=("quick", "full"), default="full"
    )
    bench.add_argument("--save", help="directory for per-experiment reports")
    bench.add_argument(
        "--csv", help="directory for CSV exports + SUMMARY.md"
    )

    store = sub.add_parser(
        "store",
        help="build a sharded on-disk distance store (repro.serve)",
    )
    _add_graph_source(store)
    store.add_argument("--out", required=True, metavar="DIR",
                       help="store directory to create")
    # store flags default to None ("not given"), as for solve
    store.add_argument(
        "--shard-rows", type=int, default=None,
        help="rows per shard — the build's peak-memory knob (default 256)",
    )
    store.add_argument(
        "--landmarks", type=int, default=None,
        help="pinned landmark rows for ALT bounds / degraded answers "
        "(default 8)",
    )
    store.add_argument(
        "--codec", default=None,
        choices=("raw", "f4", "u16q", "u16qd"),
        help="shard codec: raw f8, f4, u16 quantized (certified error "
        "bound), or u16 quantized + degree-order delta + zlib",
    )
    store.add_argument(
        "--epsilon", type=float, default=None, metavar="EPS",
        help="recommended ALT short-circuit gap recorded in the "
        "manifest (0 = exact-gap only; omit to disable)",
    )
    store.add_argument(
        "--config", metavar="PATH", default=None,
        help="serialized repro.config.ServeConfig; its store group "
        "supplies the defaults (explicit flags still win)",
    )
    store.add_argument(
        "--save-config", metavar="PATH", default=None,
        help="write the resolved ServeConfig of this build as JSON",
    )

    update = sub.add_parser(
        "update",
        help="apply a batch of edge updates to a live distance store "
        "(copy-on-write, only dirty shards re-solved)",
    )
    update.add_argument("--store", required=True, metavar="DIR",
                        help="store directory to update in place")
    _add_graph_source(update)
    update.add_argument(
        "--updates", required=True, metavar="DSL",
        help="the batch: 'set=u,v,w;del=u,v;...' (set inserts or "
        "reweights, del removes)",
    )
    update.add_argument(
        "--no-prescreen", action="store_true",
        help="skip the landmark clean-shard certificates (the exact "
        "endpoint refinement alone still bounds the dirty set)",
    )
    update.add_argument(
        "--prune", action="store_true",
        help="delete superseded old-generation files after the swap "
        "(leave off while readers may hold the old manifest)",
    )
    update.add_argument(
        "--json", action="store_true",
        help="print the UpdateResult as JSON instead of a summary",
    )

    query = sub.add_parser(
        "query", help="answer queries from a distance store"
    )
    query.add_argument("--store", required=True, metavar="DIR",
                       help="store directory (see 'store' / repro.serve)")
    query.add_argument("--u", type=int, required=True, help="source vertex")
    query.add_argument("--v", type=int, default=None, help="target vertex")
    query.add_argument(
        "--top-k", type=int, default=None, metavar="K",
        help="the K nearest vertices to --u instead of a point query",
    )
    query.add_argument(
        "--approx", action="store_true",
        help="answer from the pinned landmarks (certified ALT bounds, "
        "the degraded path)",
    )
    query.add_argument(
        "--max-error", type=float, default=None, metavar="EPS",
        help="allow point answers from ALT landmark bounds whenever "
        "their certified gap is <= EPS (no shard load); overrides the "
        "store's recorded epsilon",
    )
    query.add_argument(
        "--config", metavar="PATH", default=None,
        help="serialized repro.config.ServeConfig for the query "
        "engine (cache size, epsilon, ...); explicit flags still win",
    )

    dist = sub.add_parser(
        "dist",
        help="simulated multi-node cluster build (repro.dist): "
        "partition APSP sources across ranks, cost the network",
    )
    _add_graph_source(dist)
    dist.add_argument(
        "--cluster", choices=("fast", "commodity"), default=None,
        help="named cluster preset (latency/bandwidth calibration); "
        "default 'fast' unless --nodes builds a custom spec",
    )
    dist.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="custom cluster: number of nodes (overrides --cluster)",
    )
    dist.add_argument(
        "--threads-per-node", type=int, default=16, metavar="T",
        help="threads per node for a custom --nodes cluster",
    )
    dist.add_argument(
        "--shard-rows", type=int, default=None,
        help="rows per shard (default: ceil(n / num_nodes))",
    )
    dist.add_argument(
        "--algorithm", default=None, choices=solver_names(),
        help="per-rank solver from the registry (default parapsp)",
    )
    dist.add_argument(
        "--replication", type=int, default=None, metavar="R",
        help="also place the build's shards on a consistent-hash ring "
        "with R replicas and print the per-node placement",
    )
    dist.add_argument(
        "--fault-plan", metavar="DSL", default=None,
        help="node faults during the build, e.g. "
        "'kill:worker=1,after=2;stall:worker=0,for=0.1' — recovered "
        "distances stay bitwise-equal to the fault-free build",
    )
    dist.add_argument(
        "--json", action="store_true",
        help="print the ClusterBuildResult summary as JSON",
    )

    # the bench module owns its flags; the subcommand adopts them
    sub.add_parser(
        "serve-bench",
        parents=[serve_bench.build_parser(add_help=False)],
        help="deterministic query-serving bench → BENCH_serve.json",
        description="run the deterministic query-serving bench (or its "
        "--update / --dist / --curve scenario) and write its output",
    )

    sub.add_parser(
        "monitor",
        parents=[serve_monitor.build_parser(add_help=False)],
        help="tail / summarize / validate a telemetry event log",
    )

    sub.add_parser("datasets", help="list the dataset registry")
    info = sub.add_parser(
        "info", help="algorithm and experiment inventory"
    )
    info.add_argument(
        "--store", metavar="DIR", default=None,
        help="dump a distance store's manifest (schema, codec, "
        "certified error, byte stats) instead",
    )
    return parser


#: ``solve`` without ``--config``: SolverConfig defaults, except that
#: the CLI recovers from worker deaths instead of raising
_SOLVE_BASE = SolverConfig.from_kwargs(on_worker_death="retry")


def _merge_config(command: str, path: Optional[str], base, **flags):
    """The file + flags rule of ``solve``, ``store`` and ``query``.

    The ``--config`` file (``base`` without one; either way a config of
    ``base``'s type) with every flag the user gave — every one that is
    not ``None`` — on top.
    """
    from .exceptions import ConfigError

    prefix = f"repro-apsp {command}: error:"
    if path:
        try:
            base = type(base).load(path)
        except ConfigError as exc:
            raise SystemExit(f"{prefix} --config: {exc}")
    try:
        return base.with_overrides(
            **{k: v for k, v in flags.items() if v is not None}
        )
    except ConfigError as exc:
        raise SystemExit(f"{prefix} {exc}")


def _save_config(path: str, cfg) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_json(indent=2) + "\n")
    print(f"config saved : {path}")


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    """The graph-source flags every graph-reading command takes."""
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", choices=dataset_names(), help="registry graph")
    src.add_argument("--edgelist", help="path to a SNAP-format edge list")
    src.add_argument(
        "--rmat",
        type=int,
        metavar="SCALE",
        help="synthetic R-MAT graph with 2**SCALE vertices (Graph500 "
        "parameters, seeded — deterministic)",
    )
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument(
        "--seed", type=int, default=42, help="seed for --rmat generation"
    )
    parser.add_argument(
        "--edge-factor", type=int, default=8, help="edges per vertex for --rmat"
    )
    parser.add_argument("--directed", action="store_true")


def _solve_graph(args: argparse.Namespace):
    """Graph from the :func:`_add_graph_source` flags."""
    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale)
    if args.rmat is not None:
        from .graphs.rmat import rmat

        return rmat(
            args.rmat,
            edge_factor=args.edge_factor,
            seed=args.seed,
            name=f"rmat-s{args.rmat}-ef{args.edge_factor}",
        )
    graph, _ = read_edgelist(args.edgelist, directed=args.directed)
    return graph


def _fault_plan(command: str, text: Optional[str]):
    """The parsed ``--fault-plan`` of ``solve`` / ``dist`` (or None)."""
    if not text:
        return None
    from .exceptions import FaultPlanError
    from .faults import parse_fault_plan

    try:
        return parse_fault_plan(text)
    except FaultPlanError as exc:
        raise SystemExit(f"repro-apsp {command}: error: --fault-plan: {exc}")


def _print_store_layout(store, label_width: int) -> None:
    """The byte, shard and landmark lines of ``store`` and ``info --store``."""
    sizes = [store.shard_nbytes(i) for i in range(store.num_shards)]
    total = sum(sizes)
    raw_equiv = store.n * store.n * 8
    rows = (
        ("bytes", f"{total} on disk ({total / 2**20:.2f} MiB); raw f8 "
                  f"equivalent {raw_equiv} ({raw_equiv / total:.1f}x)"),
        ("shards", f"min {min(sizes)} / mean {total / len(sizes):.0f} / "
                   f"max {max(sizes)} bytes"),
        ("landmarks", f"{store.landmark_ids}"),
    )
    for label, text in rows:
        print(f"{label:<{label_width}}: {text}")


def _cmd_solve(args: argparse.Namespace) -> int:
    import time

    from .obs import MetricsRegistry, use_registry

    graph = _solve_graph(args)
    registry = MetricsRegistry() if args.metrics else None
    fault_plan = _fault_plan("solve", args.fault_plan)
    cfg = _merge_config(
        "solve",
        args.config,
        _SOLVE_BASE,
        algorithm=args.algorithm,
        num_threads=args.threads,
        backend=args.backend,
        schedule=args.schedule,
        fault_plan=fault_plan,
        on_worker_death=args.on_worker_death,
        timeout=args.timeout,
    )
    t0 = time.perf_counter()
    if registry is not None:
        with use_registry(registry):
            result = solve_apsp(graph, **cfg.to_kwargs())
    else:
        result = solve_apsp(graph, **cfg.to_kwargs())
    wall = time.perf_counter() - t0
    if args.save_config:
        _save_config(args.save_config, cfg)
    finite = np.isfinite(result.dist)
    off_diag = finite.sum() - graph.num_vertices
    unit = "work units" if result.backend == "sim" else "s"
    print(f"graph        : {graph!r}")
    print(f"algorithm    : {result.algorithm} ({result.backend}, "
          f"{result.num_threads} threads, schedule={result.schedule})")
    print(f"ordering     : {result.ordering_method} "
          f"[{result.phase_times.ordering:.6g} {unit}]")
    print(f"dijkstra     : {result.phase_times.dijkstra:.6g} {unit}")
    if result.sweep_kernel is not None:
        print(f"sweep kernel : {result.sweep_kernel}")
    if result.sweep_simd is not None:
        print(f"sweep merge  : {result.sweep_simd}")
    print(f"total        : {result.total_time:.6g} {unit}")
    if cfg.faults.plan is not None:
        print(f"fault plan   : {len(cfg.faults.plan)} fault(s), "
              f"policy={cfg.faults.on_worker_death} — distances are exact "
              f"(recovered work re-executed)")
    print(f"reachable    : {off_diag} of "
          f"{graph.num_vertices * (graph.num_vertices - 1)} ordered pairs")
    fin_vals = result.dist[finite & ~np.eye(len(graph), dtype=bool)]
    if fin_vals.size:
        print(f"distances    : mean {fin_vals.mean():.4g}, "
              f"max {fin_vals.max():.4g}")
    if args.out:
        np.save(args.out, result.dist)
        print(f"matrix saved : {args.out}")
    if args.metrics:
        from .obs import artifact_from_apsp_result, write_artifact

        artifact = artifact_from_apsp_result(
            f"solve-{graph.name or 'graph'}",
            graph,
            result,
            registry=registry,
            wall_seconds=wall,
        )
        path = write_artifact(args.metrics, artifact)
        print(f"metrics saved: {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .trace import (
        TraceRecorder,
        analyze_trace,
        trace_from_apsp_result,
        write_chrome,
    )

    graph = _solve_graph(args)
    solve_kwargs = dict(
        algorithm=args.algorithm,
        num_threads=args.threads,
        backend=args.backend,
        schedule=args.schedule,
    )
    if args.backend == "sim":
        result = solve_apsp(graph, trace=True, **solve_kwargs)
        trace = trace_from_apsp_result(result)
    else:
        from .obs import use_registry

        recorder = TraceRecorder()
        with use_registry(recorder):
            solve_apsp(graph, **solve_kwargs)
        trace = recorder.to_trace()
    print(f"graph  : {graph!r}")
    print(f"trace  : {trace.clock} clock, {trace.num_tracks} track(s), "
          f"{len(trace.spans)} span(s), makespan {trace.makespan:.6g}")
    if args.out:
        path = write_chrome(args.out, trace)
        print(f"chrome : {path} (open in ui.perfetto.dev)")
    if args.gantt:
        from .simx import render_gantt

        print()
        print(render_gantt(trace))
    if args.report or not (args.out or args.gantt):
        print()
        print(analyze_trace(trace, top_k=args.top_k).format())
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale)
    degrees = degree_array(graph)
    result = compute_order(
        args.method, degrees, num_threads=args.threads, backend="threads"
    )
    seq = degrees[result.order[: min(10, result.n)]]
    print(f"graph   : {graph!r}")
    print(f"method  : {result.method} (exact={result.exact}, "
          f"{result.num_threads} threads)")
    print(f"head degrees: {seq.tolist()}")
    for key, value in sorted(result.stats.items()):
        print(f"{key:18s}: {value:g}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis.centrality import (
        closeness_centrality,
        summarize_network,
    )

    graph = _solve_graph(args)
    result = solve_apsp(graph, algorithm="parapsp")
    summary = summarize_network(result.dist)
    print(f"graph                : {graph!r}")
    print(f"reachable pairs      : {summary.reachable_pairs} "
          f"({summary.reachability:.1%})")
    print(f"average path length  : {summary.average_path_length:.4g}")
    print(f"diameter / radius    : {summary.diameter:g} / {summary.radius:g}")
    print(f"global efficiency    : {summary.global_efficiency:.4g}")
    closeness = closeness_centrality(result.dist)
    top = np.argsort(-closeness)[: max(0, args.top)]
    if top.size:
        print(f"top-{top.size} closeness centrality:")
        for rank, v in enumerate(top, 1):
            print(f"  {rank}. vertex {int(v)} ({closeness[v]:.4f})")
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    from .core.paths import apsp_with_paths

    graph = _solve_graph(args)
    result = apsp_with_paths(graph)
    route = result.path(args.source, args.target)
    if route is None:
        print(f"{args.target} is unreachable from {args.source}")
        return 1
    print(f"distance : {result.dist[args.source, args.target]:g}")
    print(f"path     : {' -> '.join(map(str, route))}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    results = run_many(args.experiment, profile=profile, verbose=True)
    if args.save:
        paths = save_report(results, args.save)
        print(f"saved {len(paths)} report(s) under {args.save}")
    if args.csv:
        from .bench import export_all

        paths = export_all(results, args.csv)
        print(f"exported {len(paths)} CSV/summary file(s) under {args.csv}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import time

    from .exceptions import ReproError
    from .serve import solve_to_store

    graph = _solve_graph(args)
    cfg = _merge_config(
        "store",
        args.config,
        ServeConfig(),
        shard_rows=args.shard_rows,
        num_landmarks=args.landmarks,
        codec=args.codec,
        epsilon=args.epsilon,
    )
    t0 = time.perf_counter()
    try:
        store = solve_to_store(graph, args.out, **cfg.store.to_dict())
    except ReproError as exc:
        raise SystemExit(f"repro-apsp store: error: {exc}")
    wall = time.perf_counter() - t0
    if args.save_config:
        _save_config(args.save_config, cfg)
    print(f"graph     : {graph!r}")
    print(f"store     : {store.path} ({store.num_shards} shard(s) of "
          f"{store.shard_rows} row(s))")
    print(f"codec     : {store.codec_name} "
          f"(certified max abs error {store.max_abs_error:g})")
    _print_store_layout(store, 10)
    print(f"built in  : {wall:.3g} s (peak memory one shard, not n^2)")
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    import json as _json
    import time

    from .exceptions import ReproError
    from .serve import DistStore, apply_edge_updates, parse_edge_updates

    try:
        store = DistStore.open(args.store)
        graph = _solve_graph(args)
        updates = parse_edge_updates(args.updates)
        t0 = time.perf_counter()
        result = apply_edge_updates(
            store, graph, updates,
            prescreen=not args.no_prescreen, prune=args.prune,
        )
    except ReproError as exc:
        raise SystemExit(f"repro-apsp update: error: {exc}")
    wall = time.perf_counter() - t0
    if args.json:
        print(_json.dumps(result.to_dict(), indent=2))
        return 0
    total = result.store.num_shards if result.store else 0
    print(f"store      : {args.store} -> generation {result.generation}")
    print(f"updates    : {result.num_updates} edge(s), endpoints "
          f"{list(result.endpoints)}")
    print(f"prescreen  : {result.certified_clean_shards} of {total} "
          f"shard(s) certified clean by landmark bounds")
    print(f"dirty      : {len(result.dirty_shards)} shard(s) re-solved "
          f"{list(result.dirty_shards)}; landmarks "
          f"{'rebuilt' if result.landmarks_rebuilt else 'kept'}")
    print(f"cost       : {result.cost_rows} row-unit(s) vs "
          f"{result.rebuild_rows} for a full rebuild "
          f"({result.cost_ratio:.3f}x)")
    if result.pruned_files:
        print(f"pruned     : {len(result.pruned_files)} superseded file(s)")
    print(f"applied in : {wall:.3g} s (old generation stays readable "
          "until engines refresh())")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .exceptions import ReproError
    from .serve import DistStore, QueryEngine

    cfg = _merge_config(
        "query", args.config, ServeConfig(), epsilon=args.max_error,
    )
    try:
        store = DistStore.open(args.store)
        engine = QueryEngine(
            store,
            cache_shards=cfg.engine.cache_shards,
            verify_loads=cfg.engine.verify_loads,
            epsilon=cfg.store.epsilon,
        )
        if args.top_k is not None:
            nearest = engine.top_k(args.u, args.top_k)
            print(f"top-{args.top_k} nearest to {args.u}:")
            for rank, (vertex, dist) in enumerate(nearest, 1):
                print(f"  {rank}. vertex {vertex} (distance {dist:g})")
            return 0
        if args.v is None:
            row = engine.dist_from(args.u)
            finite = np.isfinite(row)
            finite[args.u] = False
            print(f"row {args.u}: {int(finite.sum())} reachable of "
                  f"{store.n - 1}")
            if finite.any():
                print(f"  mean {row[finite].mean():.4g}, "
                      f"max {row[finite].max():.4g}")
            return 0
        if args.approx:
            lo, hi = engine.dist_approx(args.u, args.v)
            print(f"{lo:g} <= dist({args.u}, {args.v}) <= {hi:g} "
                  f"(certified ALT landmark bounds, gap {hi - lo:g})")
            return 0
        value = engine.dist(args.u, args.v)
        suffix = ""
        if engine.stats["short_circuits"]:
            suffix = (f"  (ALT short-circuit, error <= "
                      f"{(engine.epsilon or 0.0) / 2:g}, no shard load)")
        print(f"dist({args.u}, {args.v}) = {value:g}{suffix}")
        return 0
    except ReproError as exc:
        raise SystemExit(f"repro-apsp query: error: {exc}")


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .exceptions import ReproError

    try:
        return serve_bench.run(args, prog="repro-apsp serve-bench")
    except ReproError as exc:
        raise SystemExit(f"repro-apsp serve-bench: error: {exc}")


def _cmd_dist(args: argparse.Namespace) -> int:
    import json as _json
    import time

    from .dist import (
        CLUSTER_COMMODITY,
        CLUSTER_FAST,
        ClusterSpec,
        solve_apsp_cluster,
    )
    from .exceptions import ReproError

    graph = _solve_graph(args)
    if args.nodes is not None:
        cluster = ClusterSpec(
            name=f"custom-{args.nodes}x{args.threads_per_node}",
            num_nodes=args.nodes,
            threads_per_node=args.threads_per_node,
        )
    elif args.cluster == "commodity":
        cluster = CLUSTER_COMMODITY
    else:
        cluster = CLUSTER_FAST
    fault_plan = _fault_plan("dist", args.fault_plan)
    solver_kwargs = {}
    if args.algorithm is not None:
        solver_kwargs["algorithm"] = args.algorithm
    t0 = time.perf_counter()
    try:
        result = solve_apsp_cluster(
            graph,
            cluster,
            shard_rows=args.shard_rows,
            fault_plan=fault_plan,
            **solver_kwargs,
        )
    except ReproError as exc:
        raise SystemExit(f"repro-apsp dist: error: {exc}")
    wall = time.perf_counter() - t0
    placement = None
    if args.replication is not None:
        from .serve import ShardRouter

        router = ShardRouter(
            cluster.num_nodes, replication=args.replication
        )
        placement = {
            str(node): shards
            for node, shards in sorted(
                router.placement(result.num_shards).items()
            )
        }
    if args.json:
        summary = result.to_summary()
        if placement is not None:
            summary["placement"] = placement
        print(_json.dumps(summary, indent=2))
        return 0
    print(f"graph     : {graph!r}")
    print(f"cluster   : {cluster.name} ({cluster.num_nodes} node(s) x "
          f"{cluster.threads_per_node} thread(s))")
    print(f"shards    : {result.num_shards} of {result.shard_rows} row(s)")
    print(f"makespan  : {result.makespan:g} work units "
          f"(assembly {result.assembly_time:g})")
    print(f"network   : {result.network_bytes} bytes shuffled")
    if result.lost_ranks:
        print(f"faults    : lost rank(s) {list(result.lost_ranks)}; "
              f"{len(result.recovered_by)} shard(s) re-solved "
              "(bitwise-equal to the fault-free build)")
    if placement is not None:
        print(f"placement : replication {args.replication} over "
              f"{cluster.num_nodes} node(s)")
        for node, shards in placement.items():
            print(f"  node {node}: shards {shards}")
    print(f"solved in : {wall:.3g} s (simulated cluster, exact answers)")
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = []
    for name in dataset_names():
        spec = dataset_info(name)
        rows.append(
            (
                spec.name,
                spec.kind,
                spec.real_vertices,
                spec.real_edges,
                spec.default_scale,
                spec.source,
            )
        )
    print(
        format_table(
            ("name", "type", "paper |V|", "paper |E|", "default scale",
             "source"),
            rows,
            title="dataset registry (synthetic stand-ins; see DESIGN.md)",
        )
    )
    return 0


def _cmd_store_info(path: str) -> int:
    """``info --store DIR``: dump manifest codec/error/byte fields."""
    from .exceptions import ReproError
    from .serve import DistStore

    try:
        store = DistStore.open(path)
    except ReproError as exc:
        raise SystemExit(f"repro-apsp info: error: {exc}")
    print(f"store    : {store.path}")
    print(f"schema   : {store.manifest['schema']}")
    print(f"n        : {store.n} ({store.num_shards} shard(s) of "
          f"{store.shard_rows} row(s))")
    params = store.manifest.get("codec_params", {})
    print(f"codec    : {store.codec_name}"
          + (f" (params: {', '.join(sorted(params))})" if params else ""))
    print(f"error    : certified max abs error {store.max_abs_error:g}")
    eps = store.epsilon
    print(f"epsilon  : {'disabled' if eps is None else format(eps, 'g')} "
          f"(ALT short-circuit gap)")
    _print_store_layout(store, 9)
    cfg = store.manifest.get("config", {}).get("algorithm", {})
    print(f"solver   : {cfg.get('name', '?')} "
          f"(use_flags={cfg.get('use_flags')})")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    if getattr(args, "store", None):
        return _cmd_store_info(args.store)
    from .core.runner import ALGORITHMS

    rows = [
        (spec.name, spec.ordering, spec.schedule.value,
         "neg" if spec.negative_weights else "-", spec.description)
        for spec in ALGORITHMS.values()
    ]
    print(format_table(
        ("algorithm", "ordering", "schedule", "capabilities", "description"),
        rows,
        title="algorithms (capabilities: see docs/solvers.md)",
    ))
    print()
    print("experiments:", ", ".join(experiment_ids()))
    from .dist import CLUSTER_COMMODITY, CLUSTER_FAST

    clusters = ", ".join(
        f"{c.name} ({c.num_nodes}x{c.threads_per_node})"
        for c in (CLUSTER_FAST, CLUSTER_COMMODITY)
    )
    print(f"clusters: {clusters} (repro.dist; see docs/distributed.md)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "trace": _cmd_trace,
        "order": _cmd_order,
        "analyze": _cmd_analyze,
        "paths": _cmd_paths,
        "bench": _cmd_bench,
        "store": _cmd_store,
        "update": _cmd_update,
        "query": _cmd_query,
        "dist": _cmd_dist,
        "serve-bench": _cmd_serve_bench,
        "monitor": serve_monitor.run,
        "datasets": _cmd_datasets,
        "info": _cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

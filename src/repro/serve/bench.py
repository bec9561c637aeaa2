"""Deterministic query-serving bench → ``BENCH_serve*.json``.

CI's ``serve-smoke`` matrix runs this module once per codec, then
gates with :mod:`repro.obs.regress` against the committed per-codec
baseline (``benchmarks/baselines/BENCH_serve.json`` for ``raw``,
``BENCH_serve_<codec>.json`` otherwise).  One run:

1. builds a :class:`~repro.serve.store.DistStore` from the same seeded
   R-MAT graph the perf smoke uses, streaming shard-by-shard (the n×n
   matrix never materialises), fingerprints the store bytes — the
   build is flags-off and serial and codecs encode deterministically,
   so the crc is machine-independent and gates exactly — and measures
   the **observed** decode error of every shard against a fresh exact
   solve, requiring it within the manifest's certified bound;
2. replays the **pinned Zipfian trace** through the virtual-time model
   with the store's *real* per-shard byte sizes — optimised (LRU cache
   + coalescing + micro-batching), naive (every query loads its
   shard), a raw-f8-cost reference (what the same optimised replay
   would cost without compression), and an **ALT replay** where point
   queries whose certified landmark gap is within ε short-circuit with
   no shard load — and *requires* optimised to beat naive on shard
   loads and bytes moved (and on latency for ``raw``, where loads are
   expensive enough to dominate), compressed codecs to beat the
   raw-cost reference on latency, and the ALT replay to load strictly
   fewer shards;
3. replays a saturating burst (same trace at many times the rate under
   a tight admission budget) and requires graceful degradation:
   error-barred approximate answers, zero unbounded queueing;
4. injects one :class:`~repro.faults.StoreCorruptionSpec` into the
   encoded shard bytes, requires detection
   (:class:`~repro.exceptions.StoreCorruptionError`) and byte-exact
   repair through the codec;
5. pushes the trace through the *real* threaded front end once as a
   smoke of the locking paths (wall numbers recorded, never gated),
   cross-checking every exact answer against ground truth within the
   certified error bound.

The optimised replay runs with request-scoped telemetry attached
(:mod:`repro.serve.telemetry`): its virtual-time event stream feeds the
``serve_latency_hist`` section (a
:class:`~repro.obs.hist.LatencyHistogram` whose quantiles the bench
*asserts* are within the certified relative error of the exact
percentiles) and the ``serve_slo`` section (error-budget burn rates for
:data:`SMOKE_SLO`, gated upward-only).  The sampled JSONL event log is
byte-identical across runs of the seeded trace, which CI checks with a
second run and ``cmp``, and the slowest recorded request (the
histogram's top exemplar) exports as a Perfetto-loadable trace.  The
threaded replay is scored against the same SLO through the identical
code path; its numbers land under ``wall.*`` and are never gated.

The **update-smoke** (:func:`run_update_smoke`) builds the store from
the *weighted* variant of the same graph, applies the pinned
edge-update batch (:data:`SMOKE_UPDATE_BATCH`: one insert, one
reweight, one delete) through
:func:`~repro.serve.update.apply_edge_updates`, and asserts the
headline invariants of incremental serving — the updated store is
**byte-identical** to a from-scratch build of the mutated graph, the
deterministic row-unit cost is below :data:`UPDATE_COST_GATE` of a
full rebuild, the landmark prescreen certifies shards clean, a
:class:`~repro.serve.engine.QueryEngine` holding the old generation
keeps answering from it until :meth:`refresh` adopts the new one, and
a corruption drill across an *in-flight* update aborts with the live
generation intact.  The ``update`` artifact section is gated in CI
against ``benchmarks/baselines/BENCH_update.json`` (every field exact;
``update.cost_ratio`` additionally gates upward-only).

The **dist-smoke** (:func:`run_dist_smoke`) is the multi-node leg of
the bench on a 4-node virtual cluster.  Build side,
:func:`~repro.dist.solve_apsp_cluster` must produce distances
bitwise-identical to the single-machine solve both fault-free and
under the pinned node-granularity :class:`~repro.faults.FaultPlan`
(one rank killed mid-build, one straggling); serve side, a
:class:`~repro.serve.router.RoutedEngine` over a consistent-hash
:class:`~repro.serve.router.ShardRouter` must answer byte-identically
to a single-node :class:`~repro.serve.engine.QueryEngine` — including
with a failed node, replication ≥ 2 — and the hot-shard-skewed trace
(:data:`DIST_TRAFFIC`) replayed through the router must see its p99
*improve* after :meth:`~repro.serve.router.ShardRouter.rebalance`
moves the hot shards off the overloaded node.  The ``dist`` artifact
section is gated in CI against
``benchmarks/baselines/BENCH_dist.json`` (answer fingerprints and
failover/loss event counts exact; ``network_bytes``, makespans and
``*_ms`` percentiles upward-only).

:func:`run_codec_curve` sweeps every codec into the accuracy-vs-latency
curve (``repro.serve.curve/1``) that CI uploads.  The flags picking a
scenario and its outputs are in ``python -m repro.serve.bench --help``
(``repro-apsp serve-bench`` takes the same).  Regenerate a baseline
after an intentional serving change::

    PYTHONPATH=src python -m repro.serve.bench \
        --codec u16q --out benchmarks/baselines/BENCH_serve_u16q.json
    PYTHONPATH=src python -m repro.serve.bench \
        --update --out benchmarks/baselines/BENCH_update.json
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import tempfile
import time
import zlib
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..dist import CLUSTER_FAST, solve_apsp_cluster
from ..exceptions import BenchmarkError, StoreCorruptionError
from ..faults import FaultPlan, FaultSpec, StoreCorruptionSpec
from ..graphs import attach_random_weights
from ..graphs.rmat import rmat
from ..obs.artifact import build_artifact, write_artifact
from ..obs.metrics import MetricsRegistry, use_registry
from ..trace import to_chrome, validate_chrome, write_chrome
from .admission import AdmissionPolicy, ServeFrontend
from .codecs import codec_names
from .engine import QueryEngine
from .replay import ServeCostModel, replay_threaded, replay_virtual
from .slo import SLOSpec, evaluate_slo
from .router import RoutedEngine, ShardRouter
from .store import DistStore, solve_to_store
from .telemetry import JsonlSink, TelemetryCollector, export_request_trace
from .traffic import TrafficSpec, generate_trace
from .update import (
    apply_edge_updates,
    apply_updates_to_graph,
    parse_edge_updates,
)

__all__ = [
    "run_serve_smoke",
    "run_update_smoke",
    "run_dist_smoke",
    "run_codec_curve",
    "build_parser",
    "run",
    "main",
]

#: workload identity — bump when any knob below changes so a stale
#: baseline fails on params instead of on mysterious counters
#: (rev 2: codec-aware replay costs, ALT ε short-circuiting;
#:  rev 3: opt percentiles read from the certified latency histogram,
#:  serve_latency_hist + serve_slo sections)
WORKLOAD_REV = 3
DEFAULT_SCALE = 7
DEFAULT_EDGE_FACTOR = 8
DEFAULT_SEED = 5
DEFAULT_SHARD_ROWS = 16
DEFAULT_CACHE_SHARDS = 3
DEFAULT_LANDMARKS = 8
DEFAULT_SERVERS = 2
#: short-circuit gap: 0.0 = answer from ALT bounds only when they
#: coincide, i.e. the short-circuit is *exact*
DEFAULT_EPSILON = 0.0

#: the pinned trace CI replays (seeded ⇒ identical on every host)
SMOKE_TRAFFIC = TrafficSpec(
    num_requests=512, rate=2000.0, zipf_s=1.1, seed=13,
    row_frac=0.02, topk_frac=0.05, topk_k=10,
)

#: the saturating burst: same popularity law, 20× the rate, replayed
#: under a tight point budget — must degrade gracefully, not queue
SATURATION_RATE = 40000.0
SATURATION_POLICY = AdmissionPolicy(max_point=8, max_row=2, max_topk=2)

#: the corruption drill: damage shard 1, expect detection + exact repair
SMOKE_CORRUPTION = StoreCorruptionSpec(shard=1, nbytes=8, seed=3)

#: the latency objective the smoke scores (gated upward-only on burn):
#: 90% of point queries inside 5 ms of virtual time, 50 ms windows —
#: pinned where the raw-codec replay genuinely burns budget (≈2×), so
#: both regressions (more burn) and codec improvements (less) register
SMOKE_SLO = SLOSpec(name="point", threshold=0.005, objective=0.9,
                    window=0.05)

#: event-ring capacity for the smoke's collectors — far above the
#: ~6 events/request the 512-request trace emits, so the ring never
#: evicts and ``--request-trace`` can export any exemplar
TELEMETRY_CAPACITY = 32768

#: the update-smoke runs on the *weighted* variant of the bench graph
#: (continuous weights keep the ALT certificates' strict inequalities
#: generic — no unit-weight ties), seeded so every host sees the same
#: weights
UPDATE_WEIGHT_SEED = 7

#: the pinned edge-update batch: one insert ((32, 35) is a non-edge
#: whose new weight undercuts the old d(32, 35), dirtying two rows in
#: shard 2 only), one upward reweight of the heavy (16, 27) edge and
#: one delete of the heaviest hub edge (64, 119) — both provably on no
#: shortest path, so the landmark prescreen certifies every other
#: shard clean without touching the solver
SMOKE_UPDATE_BATCH = "set=32,35,4.681;set=16,27,9.9;del=64,119"

#: the in-flight drill batch (applied on top of the first batch, then
#: aborted): decreasing (23, 55) well below its old weight guarantees
#: dirty shards, i.e. pending copy-on-write files to damage
DRILL_UPDATE_BATCH = "set=23,55,2.5"

#: hard ceiling on the update's deterministic row-unit cost relative
#: to a full rebuild — the point of incremental updates
UPDATE_COST_GATE = 0.5

#: the dist-smoke's virtual serving cluster / hash-ring geometry:
#: 4 nodes, every shard on 2 of them, so one node can die with exact
#: answers still served
DIST_NODES = 4
DIST_REPLICATION = 2
DIST_VNODES = 64
DIST_HASH_SEED = 0
DIST_NODE_BUDGET = 32
DIST_SERVERS_PER_NODE = 2
DIST_MAX_MOVES = 4
#: per-node replay cache, sized *below* the shards-per-node of the
#: skewed placement so the overloaded node visibly thrashes — the
#: latency signature the rebalance gate measures
DIST_CACHE_SHARDS = 2
#: pinned probe pairs for the routed-vs-single exactness cross-check
DIST_PROBE_SEED = 29
DIST_PROBE_PAIRS = 128

#: the skewed trace: same Zipf law as :data:`SMOKE_TRAFFIC` with a
#: hot band one shard wide taking most of the point traffic, at 3× the
#: rate so cache misses on the overloaded node queue behind each other
#: — the workload the rebalancer exists for
DIST_TRAFFIC = TrafficSpec(
    num_requests=512, rate=6000.0, zipf_s=1.1, seed=13,
    row_frac=0.02, topk_frac=0.05, topk_k=10,
    hot_frac=0.6, hot_width=16,
)

#: the node-granularity build fault plan: rank 1 dies after its second
#: shard claim (its remaining shards re-solve on the survivors), rank 2
#: straggles — recovery must stay bitwise-exact
DIST_FAULT_PLAN = FaultPlan(
    (
        FaultSpec(kind="kill", worker=1, after_claims=2),
        FaultSpec(kind="stall", worker=2, seconds=2.5e4),
    )
)


def _check(ok: bool, scenario: str, message: str) -> None:
    """Raise :class:`~repro.exceptions.BenchmarkError` unless ``ok``.

    Every bench invariant goes through here, so a broken one fails the
    smoke (and CI) before regress even runs.
    """
    if not ok:
        raise BenchmarkError(f"{scenario} smoke: {message}")


def _check_answers(scenario: str, what: str, got, truth, bound) -> float:
    """Hold answers ``got`` to ``truth`` within ``bound``; returns their
    max abs error.

    Also requires the reachability structure to survive exactly: an
    ``inf`` that comes back finite (or vice versa) is a correctness bug
    no ε excuses.
    """
    got = np.asarray(got, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    finite = np.isfinite(truth)
    _check(np.array_equal(np.isfinite(got), finite), scenario,
           f"{what} disagree with ground truth on reachability")
    error = float(np.max(np.abs(got[finite] - truth[finite]), initial=0.0))
    _check(error <= bound, scenario,
           f"{what} are {error:g} off ground truth, above the certified "
           f"bound {bound:g}")
    return error


def _check_below(scenario: str, what: str, value, limit) -> None:
    """The bench's "X beats Y" gates: require ``value < limit``."""
    _check(value < limit, scenario,
           f"{what}: {value:g} is not below {limit:g}")


def _observed_error(scenario: str, store, ref: np.ndarray) -> float:
    """Max abs decode error of every shard vs the exact solve, held to
    the store's certified bound."""
    decoded = [store.load_shard(i) for i in range(store.num_shards)]
    return _check_answers(
        scenario, f"codec {store.codec_name!r} decoded distances",
        np.vstack(decoded), ref, store.max_abs_error,
    )


#: a replay's outcome counters: every request ends in exactly one
_OUTCOMES = ("admitted", "degraded", "shed")


def _replay_flat(prefix: str, replay, counters: Sequence[str],
                 latency: bool = True) -> Dict[str, float]:
    """One replay's artifact keys under ``prefix``: the named counters
    and, with ``latency``, the exact mean and p99 in ms."""
    flat = {f"{prefix}.{key}": float(replay.counters[key])
            for key in counters}
    if latency:
        flat[f"{prefix}.mean_ms"] = replay.mean_latency() * 1e3
        flat[f"{prefix}.p99_ms"] = replay.percentile_latency(99) * 1e3
    return flat


class _Scenario:
    """One smoke's shared set-up, used as a context manager.

    Builds the seeded R-MAT bench graph (with seeded random weights
    when ``weight_seed`` is given) and owns the store directory (a
    temporary one, removed on exit, unless ``store_dir`` is given), the
    registry the artifact's ``counters`` and ``spans`` come from, the
    ``wall.*`` timings and the params every smoke's artifact shares.
    Only what runs under the registry lands in the gated counters, so
    each call site picks its scope explicitly.
    """

    def __init__(
        self, name: str, *, scale: int, edge_factor: int, seed: int,
        shard_rows: int, cache_shards: int, codec: str,
        store_dir: Optional[str], weight_seed: Optional[int] = None,
    ) -> None:
        graph = rmat(scale, edge_factor=edge_factor, seed=seed,
                     name=f"rmat-s{scale}-ef{edge_factor}")
        if weight_seed is not None:
            graph = attach_random_weights(graph, seed=weight_seed)
        self.name = name
        self.graph = graph
        self.n = graph.num_vertices
        self.registry = MetricsRegistry()
        self.timings: Dict[str, float] = {}
        self.params: Dict[str, object] = {
            "workload_rev": WORKLOAD_REV,
            "graph": graph.name,
            "n": int(self.n),
            "m": int(graph.num_edges),
            "rmat_scale": scale,
            "rmat_edge_factor": edge_factor,
            "rmat_seed": seed,
            "shard_rows": shard_rows,
            "cache_shards": cache_shards,
            "codec": codec,
            "num_landmarks": DEFAULT_LANDMARKS,
        }
        if weight_seed is not None:
            self.params["weight_seed"] = weight_seed
        self._tmp = None
        if store_dir is None:
            self._tmp = tempfile.TemporaryDirectory(
                prefix=f"repro-{name}-smoke-"
            )
            store_dir = self._tmp.name + "/store"
        self.store_dir = store_dir

    def __enter__(self) -> "_Scenario":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()

    @contextmanager
    def timed(self, key: str) -> Iterator[None]:
        """Run the block under the registry, its wall time as ``key``."""
        t0 = time.perf_counter()
        with use_registry(self.registry):
            yield
        self.timings[key] = time.perf_counter() - t0

    def build(self, graph=None, *, key: str = "wall.store_build",
              suffix: str = "", **store_kwargs) -> DistStore:
        """:func:`solve_to_store` of the bench graph (or ``graph``) into
        the store directory plus ``suffix``, timed under the registry."""
        with self.timed(key):
            return solve_to_store(
                self.graph if graph is None else graph,
                self.store_dir + suffix, num_landmarks=DEFAULT_LANDMARKS,
                shard_rows=self.params["shard_rows"],
                codec=self.params["codec"], **store_kwargs,
            )

    def truth(self, graph=None) -> np.ndarray:
        """Ground truth: an exact flags-off solve of the bench graph (or
        ``graph``), outside the registry."""
        from ..core import solve_apsp

        graph = self.graph if graph is None else graph
        return solve_apsp(graph, use_flags=False).dist

    def artifact(self, params: Dict[str, object], **sections) -> Dict:
        """The ``<name>-smoke`` artifact: shared plus ``params``, the
        timings, the registry and the scenario's own ``sections``."""
        return build_artifact(f"{self.name}-smoke",
                              params={**self.params, **params},
                              timings=self.timings, registry=self.registry,
                              **sections)


def run_serve_smoke(
    *,
    scale: int = DEFAULT_SCALE,
    edge_factor: int = DEFAULT_EDGE_FACTOR,
    seed: int = DEFAULT_SEED,
    shard_rows: int = DEFAULT_SHARD_ROWS,
    cache_shards: int = DEFAULT_CACHE_SHARDS,
    codec: str = "raw",
    epsilon: float = DEFAULT_EPSILON,
    store_dir: Optional[str] = None,
    events_out: Optional[str] = None,
    events_sample: float = 1.0,
    request_trace_out: Optional[str] = None,
) -> Tuple[Dict[str, object], MetricsRegistry]:
    """Run the serving smoke for one codec; returns ``(artifact, registry)``.

    Raises :class:`~repro.exceptions.BenchmarkError` if any of the
    bench's own invariants fail (optimised not beating naive, observed
    error above the certified bound, compressed codec not beating the
    raw-cost reference, ALT short-circuits not reducing shard loads, no
    degradation under saturation, corruption not detected or not
    exactly repaired, a histogram quantile outside its certified error
    of the exact percentile) — CI then fails before regress even runs.

    ``events_out`` writes the optimised replay's telemetry as a JSONL
    event log (sampled per trace id at ``events_sample``, deterministic
    — two runs of the same workload produce byte-identical files);
    ``request_trace_out`` writes the Chrome/Perfetto trace of the
    slowest recorded request, named by the histogram's top exemplar.
    """
    with _Scenario(
        "serve", scale=scale, edge_factor=edge_factor, seed=seed,
        shard_rows=shard_rows, cache_shards=cache_shards, codec=codec,
        store_dir=store_dir,
    ) as sc:
        n = sc.n
        store = sc.build(epsilon=epsilon)

        # ground truth for the error audit and the threaded cross-check
        ref = sc.truth()
        certified = store.max_abs_error
        observed = _observed_error("serve", store, ref)
        # unit-weight R-MAT distances are small integers — exact in f4
        # too, so any error here means the codec is broken
        _check(codec not in ("raw", "f4") or scale > 10 or observed == 0,
               "serve", f"codec {codec!r} should be exact on the hop-count "
               f"smoke graph, observed error {observed:g}")
        store_bytes = store.store_bytes()
        raw_store_bytes = n * n * 8
        _check(codec not in ("u16q", "u16qd")
               or store_bytes * 2 <= raw_store_bytes, "serve",
               f"codec {codec!r} store is {store_bytes} bytes, not ≥2× "
               f"below raw f8 {raw_store_bytes}")

        sizes = [store.shard_nbytes(i) for i in range(store.num_shards)]
        trace = generate_trace(SMOKE_TRAFFIC, n)
        policy = AdmissionPolicy()
        cost = ServeCostModel()

        replay = functools.partial(
            replay_virtual, n=n, shard_rows=shard_rows, policy=policy,
            cost=cost, cache_shards=cache_shards,
            num_servers=DEFAULT_SERVERS, optimized=True, shard_nbytes=sizes,
        )

        sink: Optional[JsonlSink] = None
        if events_out is not None:
            sink = JsonlSink(events_out, params={
                **{key: sc.params[key] for key in (
                    "workload_rev", "codec", "rmat_scale", "rmat_seed",
                    "shard_rows", "cache_shards",
                )},
                "epsilon": float(epsilon),
                "traffic_requests": SMOKE_TRAFFIC.num_requests,
                "traffic_seed": SMOKE_TRAFFIC.seed,
                "sample": float(events_sample),
            })
        collector = TelemetryCollector(capacity=TELEMETRY_CAPACITY,
                                       sink=sink, sample=events_sample)
        try:
            opt = replay(trace, telemetry=collector, codec=codec)
        finally:
            if sink is not None:
                sink.close()
        naive = replay(trace, optimized=False)
        # same optimised replay at raw-f8 shard sizes: the latency the
        # codec is claiming credit against
        raw_ref = replay(trace, shard_nbytes=None)
        for key in ("shard_loads", "bytes_loaded"):
            _check_below("serve", f"optimised {key} vs naive",
                         opt.counters[key], naive.counters[key])
        # the latency leg of opt-vs-naive only binds for raw: once a
        # codec makes loads cheap, the window-free naive path is
        # latency-competitive by construction and the optimised stack's
        # win is resource cost (the load/byte gates above) — so a
        # codec's latency is gated against raw_ref instead: its own win
        label, reference = (
            ("naive", naive) if codec == "raw" else ("raw-f8 cost", raw_ref))
        _check_below("serve", f"codec {codec!r} mean latency vs {label}",
                     opt.mean_latency(), reference.mean_latency())

        # ALT replay: which point requests would short-circuit on the
        # certified landmark gap alone?  The probe touches no shards.
        probe = QueryEngine(store, cache_shards=1, epsilon=epsilon)
        sc_indices: List[int] = []
        for i, req in enumerate(trace):
            if req.kind == "point":
                lo, hi = probe.dist_bounds(req.u, req.v)
                if lo == hi or hi - lo <= epsilon:
                    sc_indices.append(i)
        _check(probe.stats["shard_loads"] == 0, "serve",
               "ALT bound probe loaded shards")
        _check(bool(sc_indices), "serve", "no point query short-circuits "
               "on the ALT gap — landmark bounds are not engaging")
        alt = replay(trace, short_circuits=sc_indices)
        _check(alt.counters["short_circuits"] > 0, "serve",
               "ALT replay recorded no short-circuits")
        _check_below("serve", "ALT replay shard loads vs optimised",
                     alt.counters["shard_loads"], opt.counters["shard_loads"])

        burst = generate_trace(dataclasses.replace(
            SMOKE_TRAFFIC, rate=SATURATION_RATE), n)
        sat = replay(burst, policy=SATURATION_POLICY)
        _check(sat.counters["degraded"] > 0, "serve",
               "saturating burst produced no degraded (approximate) "
               "answers — admission control is not engaging")
        answered = sum(sat.counters[key] for key in _OUTCOMES)
        _check(answered == len(burst), "serve",
               f"{len(burst)} requests in, {answered} outcomes out — "
               "requests are queueing unboundedly")

        # corruption drill: detection must fire, repair must be exact
        # over the *encoded* bytes, whatever the codec
        shard_file = SMOKE_CORRUPTION.resolve(store)
        before = shard_file.read_bytes()
        SMOKE_CORRUPTION.apply_to_store(store)
        detected = None
        try:
            store.verify()
        except StoreCorruptionError as exc:
            detected = exc.shards
        _check(detected is not None, "serve",
               "store corruption went undetected")
        _check(SMOKE_CORRUPTION.shard in detected, "serve",
               f"corruption reported {detected}, expected shard "
               f"{SMOKE_CORRUPTION.shard}")
        with use_registry(sc.registry):
            repaired = store.repair(sc.graph)
        _check(repaired == [SMOKE_CORRUPTION.shard], "serve",
               f"repair touched {repaired}, expected "
               f"[{SMOKE_CORRUPTION.shard}]")
        _check(shard_file.read_bytes() == before, "serve",
               "repaired shard is not byte-identical to the original")

        # real-thread smoke of the locking paths; wall-only, not gated
        # (its telemetry collector exercises the real scope threading —
        # wall timestamps, so it never feeds the deterministic sink)
        engine = QueryEngine(store, cache_shards=cache_shards)
        thr_telemetry = TelemetryCollector(capacity=TELEMETRY_CAPACITY)
        frontend = ServeFrontend(engine, policy=policy,
                                 telemetry=thr_telemetry)
        t0 = time.perf_counter()
        threaded, responses = replay_threaded(trace, frontend,
                                              num_threads=4)
        sc.timings["wall.threaded_replay"] = time.perf_counter() - t0
        # answers must be deterministic (repeatable through the engine)
        # and within the certified error contract vs ground truth
        points = [(req, resp) for req, resp in zip(trace, responses)
                  if req.kind == "point" and resp.status == "ok"]
        _check(all(resp.value == float(engine.dist(req.u, req.v))
                   for req, resp in points), "serve", "threaded front end "
               "is not deterministic vs a repeated engine query")
        _check_answers("serve", "threaded answers",
                       [resp.value for _, resp in points],
                       [ref[req.u, req.v] for req, _ in points],
                       certified + (epsilon or 0.0) / 2.0)
        _check(engine.stats["short_circuits"] > 0, "serve",
               "the real engine never short-circuited on the ALT gap "
               "despite epsilon being set")
        answers = [e for e in thr_telemetry.events() if e.kind == "answer"]
        _check(len(answers) == len(trace), "serve",
               f"threaded telemetry recorded {len(answers)} answer "
               f"events for {len(trace)} requests")

        # the certified latency histogram over the optimised replay:
        # every quantile the artifact reports must sit within the
        # histogram's own rel_error certificate of the exact percentile
        hist = opt.latency_histogram()
        _check(hist.count == sum(len(v) for v in opt.latencies.values()),
               "serve", f"latency histogram lost samples ({hist.count} "
               "vs recorded latencies)")
        serve_hist = hist.flat("serve.opt.hist")
        serve_hist["serve.opt.hist.rel_error"] = hist.rel_error
        for q in (50, 90, 99):
            exact = opt.percentile_latency(q)
            approx = hist.quantile(q)
            _check(abs(approx - exact) <= hist.rel_error * exact + 1e-12,
                   "serve", f"histogram p{q} = {approx:g}s is outside the "
                   f"certified relative error {hist.rel_error:g} of the "
                   f"exact percentile {exact:g}s")
            serve_hist[f"serve.opt.hist.p{q}_ms"] = approx * 1e3

        # SLO burn over the virtual replay (deterministic, gated
        # upward-only) and over the threaded replay through the same
        # code path (wall-clock latencies, so wall.*: reported but
        # never gated)
        slo_report = evaluate_slo(SMOKE_SLO, opt.slo_samples("point"))
        thr_slo = evaluate_slo(SMOKE_SLO, threaded.slo_samples("point"))
        sc.timings["wall.slo_burn_rate"] = thr_slo.burn_rate
        sc.timings["wall.slo_compliance"] = thr_slo.compliance

        if request_trace_out is not None:
            # the slowest recorded request, named by the histogram's
            # top exemplar, exported as a Perfetto-loadable trace
            top_bucket = max(hist.exemplars)
            exemplar_tid = hist.exemplars[top_bucket][1]
            req_trace = export_request_trace(
                collector.events(), exemplar_tid
            )
            problems = validate_chrome(to_chrome(req_trace))
            _check(not problems, "serve", "exported request trace is not "
                   "valid Chrome JSON: " + "; ".join(problems))
            write_chrome(request_trace_out, req_trace)

        loaded = ("shard_loads", "bytes_loaded")
        serve: Dict[str, float] = {
            "serve.store.fingerprint": float(store.fingerprint()),
            "serve.store.num_shards": float(store.num_shards),
            "serve.store.store_bytes": float(store_bytes),
            "serve.store.raw_store_bytes": float(raw_store_bytes),
            "serve.store.compression_ratio": raw_store_bytes / store_bytes,
            "serve.error.certified_max_abs_error": certified,
            "serve.error.observed_max_abs_error": observed,
            **_replay_flat("serve.naive", naive, loaded),
            **_replay_flat("serve.opt", opt, loaded + (
                "cache_hits", "coalesced", "batches", "gathers",
                "degraded", "shed",
            ), latency=False),
            "serve.opt.hit_rate": opt.hit_rate(),
            "serve.opt.mean_ms": opt.mean_latency() * 1e3,
            # opt percentiles come from the certified histogram (the
            # bound vs the exact percentiles is asserted above); the
            # reference replays keep the exact sorted-array percentiles
            "serve.opt.p50_ms": hist.quantile(50) * 1e3,
            "serve.opt.p99_ms": hist.quantile(99) * 1e3,
            "serve.opt.mean_speedup":
                naive.mean_latency() / opt.mean_latency(),
            "serve.opt.raw_speedup":
                raw_ref.mean_latency() / opt.mean_latency(),
            **_replay_flat("serve.raw_ref", raw_ref, ()),
            **_replay_flat("serve.alt", alt, ("short_circuits",) + loaded),
            **_replay_flat("serve.sat", sat, _OUTCOMES, latency=False),
        }
        artifact = sc.artifact(
            {
                "epsilon": float(epsilon),
                "num_servers": DEFAULT_SERVERS,
                "traffic_requests": SMOKE_TRAFFIC.num_requests,
                "traffic_rate": SMOKE_TRAFFIC.rate,
                "traffic_zipf_s": SMOKE_TRAFFIC.zipf_s,
                "traffic_seed": SMOKE_TRAFFIC.seed,
                "saturation_rate": SATURATION_RATE,
            },
            serve=serve,
            serve_latency_hist=serve_hist,
            serve_slo=slo_report.to_flat("serve.slo.point"),
        )
        return artifact, sc.registry


def run_update_smoke(
    *,
    scale: int = DEFAULT_SCALE,
    edge_factor: int = DEFAULT_EDGE_FACTOR,
    seed: int = DEFAULT_SEED,
    shard_rows: int = DEFAULT_SHARD_ROWS,
    cache_shards: int = DEFAULT_CACHE_SHARDS,
    codec: str = "raw",
    store_dir: Optional[str] = None,
) -> Tuple[Dict[str, object], MetricsRegistry]:
    """Run the incremental-update smoke; returns ``(artifact, registry)``.

    Builds a store from the weighted bench graph, applies the pinned
    :data:`SMOKE_UPDATE_BATCH` through
    :func:`~repro.serve.update.apply_edge_updates` and asserts, with
    :class:`~repro.exceptions.BenchmarkError` on any failure:

    * **byte-identity** — the updated store's fingerprint (and byte
      size) equals a from-scratch :func:`solve_to_store` of the
      mutated graph;
    * **incrementality** — the deterministic row-unit cost is below
      :data:`UPDATE_COST_GATE` of a full rebuild, and the landmark
      prescreen certified at least one shard clean;
    * **correctness** — the updated store decodes within its certified
      error of an exact solve of the mutated graph;
    * **generation safety** — an engine opened before the update keeps
      answering from the old generation until
      :meth:`~repro.serve.engine.QueryEngine.refresh`, which adopts
      the new one and serves the post-update distances;
    * **in-flight durability** — a corruption drill that damages a
      pending copy-on-write file mid-update aborts the swap, leaving
      the live generation intact on disk and no orphaned files.

    The pinned batch's vertex ids are tuned to the default graph knobs;
    non-default ``scale``/``seed`` are for exploration only.
    """
    with _Scenario(
        "update", scale=scale, edge_factor=edge_factor, seed=seed,
        shard_rows=shard_rows, cache_shards=cache_shards, codec=codec,
        store_dir=store_dir, weight_seed=UPDATE_WEIGHT_SEED,
    ) as sc:
        graph, n = sc.graph, sc.n
        store = sc.build()
        _check(store.generation == 0, "update", "fresh build did not "
               f"start at generation 0 (got {store.generation})")
        old_fingerprint = store.fingerprint()

        # an engine holding the pre-update generation: it must keep
        # serving it, unmixed, until it explicitly refreshes
        updates = parse_edge_updates(SMOKE_UPDATE_BATCH)
        probe_pairs = sorted(
            {upd.key for upd in updates}
            | {(u, u + 1) for u in range(0, n - 1, max(1, n // 8))}
        )
        with use_registry(sc.registry):
            engine = QueryEngine(store, cache_shards=cache_shards)
            old_answers = {
                (u, v): float(engine.dist(u, v)) for u, v in probe_pairs
            }
        with sc.timed("wall.update"):
            result = apply_edge_updates(store, graph, updates)
        updated = result.store

        _check(result.generation == 1 == updated.generation, "update",
               "expected generation 1 after one update, got result "
               f"{result.generation} / store {updated.generation}")
        _check(bool(result.dirty_shards), "update", "the pinned batch "
               "dirtied no shards — the copy-on-write path was never "
               "exercised")
        _check(result.certified_clean_shards > 0, "update", "the landmark "
               "prescreen certified no shard clean — the ALT "
               "certificates are not engaging")
        _check_below("update", f"cost ratio of {result.cost_rows} rows vs "
                     f"a {result.rebuild_rows}-row rebuild",
                     result.cost_ratio, UPDATE_COST_GATE)

        # byte-identity: the updated store vs a from-scratch build of
        # the mutated graph — same fingerprint, same size
        new_graph = apply_updates_to_graph(graph, updates)
        fresh = sc.build(new_graph, key="wall.rebuild", suffix="-rebuild")
        updated_fp = updated.fingerprint()
        rebuild_fp = fresh.fingerprint()
        _check(updated_fp == rebuild_fp, "update", "updated store "
               f"fingerprint {updated_fp:#010x} differs from the rebuild's "
               f"{rebuild_fp:#010x} — updates must be byte-identical")
        _check(updated.store_bytes() == fresh.store_bytes(), "update",
               f"updated store is {updated.store_bytes()} bytes vs rebuild "
               f"{fresh.store_bytes()}")

        # correctness of the published bytes vs an exact solve
        new_ref = sc.truth(new_graph)
        observed = _observed_error("update", updated, new_ref)

        # generation safety: the old engine still serves generation 0
        # answers, then refresh() adopts generation 1 atomically
        for (u, v), before in old_answers.items():
            _check(float(engine.dist(u, v)) == before, "update",
                   f"engine answer for ({u}, {v}) changed without a "
                   "refresh — generations are mixing")
        with use_registry(sc.registry):
            adopted = engine.refresh()
        _check(adopted == 1, "update",
               f"refresh adopted generation {adopted}, expected 1")
        got = [float(engine.dist(u, v)) for u, v in probe_pairs]
        _check_answers(
            "update", "refreshed engine answers", got,
            [new_ref[u, v] for u, v in probe_pairs], updated.max_abs_error,
        )
        swapped = sum(answer != old_answers[pair]
                      for answer, pair in zip(got, probe_pairs))
        _check(swapped > 0, "update", "no probed answer changed across the "
               "update — the batch was a no-op for the probe set")

        # in-flight corruption drill: damage a pending file after it is
        # written but before the manifest swap; the update must abort
        # with the live generation intact and no orphans left behind
        drill = parse_edge_updates(DRILL_UPDATE_BATCH)
        drill_suffix = f".g{updated.generation + 1:04d}.bin"

        def damage_pending(old_store, new_manifest):
            for entry in new_manifest["shards"]:
                if entry["file"].endswith(drill_suffix):
                    path = old_store.path / entry["file"]
                    raw = bytearray(path.read_bytes())
                    raw[0] ^= 0xFF
                    path.write_bytes(bytes(raw))
                    return
            raise BenchmarkError(
                "update smoke: drill batch produced no pending shard "
                "files to damage"
            )

        try:
            apply_edge_updates(updated, new_graph, drill,
                               pre_swap_hook=damage_pending)
        except StoreCorruptionError:
            pass
        else:
            raise BenchmarkError(
                "update smoke: in-flight corruption went undetected — "
                "the damaged pending file was published"
            )
        survivor = DistStore.open(updated.path)
        _check(survivor.generation == 1, "update", "aborted update left "
               f"generation {survivor.generation} on disk, expected 1")
        survivor.verify()
        _check(survivor.fingerprint() == updated_fp, "update",
               "aborted update changed the live store's bytes")
        orphans = [p.name for p in survivor.path.iterdir()
                   if p.name.endswith(drill_suffix)]
        _check(not orphans, "update", f"aborted update left orphans {orphans}")

        update: Dict[str, float] = {
            **{f"update.{key}": float(getattr(result, key)) for key in (
                "generation", "num_updates", "certified_clean_shards",
                "landmarks_rebuilt", "rows_resolved",
                "landmark_rows_resolved", "cost_rows", "rebuild_rows",
                "cost_ratio",
            )},
            **{f"update.{key}": float(len(getattr(result, key))) for key in (
                "endpoints", "candidate_shards", "dirty_shards",
            )},
            "update.fingerprint": float(updated_fp),
            "update.rebuild_fingerprint": float(rebuild_fp),
            "update.pre_update_fingerprint": float(old_fingerprint),
            "update.store_bytes": float(updated.store_bytes()),
            "update.observed_max_abs_error": observed,
            "update.probe_answers_changed": float(swapped),
            "update.drill_aborted": 1.0,
        }
        artifact = sc.artifact({"update_batch": SMOKE_UPDATE_BATCH,
                                "drill_batch": DRILL_UPDATE_BATCH,
                                "cost_gate": UPDATE_COST_GATE}, update=update)
        return artifact, sc.registry


def _dist_ring() -> ShardRouter:
    """A fresh hash ring with the dist-smoke's serving geometry."""
    return ShardRouter(DIST_NODES, replication=DIST_REPLICATION,
                       vnodes=DIST_VNODES, hash_seed=DIST_HASH_SEED)


def run_dist_smoke(
    *,
    scale: int = DEFAULT_SCALE,
    edge_factor: int = DEFAULT_EDGE_FACTOR,
    seed: int = DEFAULT_SEED,
    shard_rows: int = DEFAULT_SHARD_ROWS,
    cache_shards: int = DEFAULT_CACHE_SHARDS,
    codec: str = "raw",
    store_dir: Optional[str] = None,
) -> Tuple[Dict[str, object], MetricsRegistry]:
    """Run the multi-node smoke; returns ``(artifact, registry)``.

    Asserts, with :class:`~repro.exceptions.BenchmarkError` on any
    failure:

    * **build exactness** — :func:`~repro.dist.solve_apsp_cluster` on
      :data:`~repro.dist.CLUSTER_FAST` is bitwise-identical to the
      single-machine solve, fault-free *and* under
      :data:`DIST_FAULT_PLAN` (a killed rank whose shards re-solve on
      the survivors, plus a straggler), with the faulted makespan
      strictly above the fault-free one;
    * **routing exactness** — a :class:`~repro.serve.router.RoutedEngine`
      answers the pinned probe set byte-identically to a single-node
      :class:`~repro.serve.engine.QueryEngine`, and keeps doing so
      after the hot shard's primary node is failed (replication covers
      it; the failover counter must move);
    * **rebalancing pays** — the hot-shard-skewed :data:`DIST_TRAFFIC`
      replayed through the router sees a strictly lower p99 after
      :meth:`~repro.serve.router.ShardRouter.rebalance` moves hot
      shards to cold nodes (at least one move must happen);
    * **loss is survivable** — the same trace with the hot node dying
      mid-replay records exactly one node loss, a nonzero failover
      count, and still answers every request.
    """
    with _Scenario(
        "dist", scale=scale, edge_factor=edge_factor, seed=seed,
        shard_rows=shard_rows, cache_shards=cache_shards, codec=codec,
        store_dir=store_dir,
    ) as sc:
        graph, n = sc.graph, sc.n
        ref = sc.truth()

        # 1. simulated cluster build: exact fault-free and faulted
        with sc.timed("wall.cluster_build"):
            build = solve_apsp_cluster(graph, CLUSTER_FAST,
                                       shard_rows=shard_rows)
        _check(np.array_equal(build.dist, ref), "dist", "cluster build is "
               "not bitwise-identical to the single-machine solve")
        with use_registry(sc.registry):
            faulted = solve_apsp_cluster(graph, CLUSTER_FAST,
                                         shard_rows=shard_rows,
                                         fault_plan=DIST_FAULT_PLAN)
        _check(np.array_equal(faulted.dist, ref), "dist", "faulted cluster "
               "build diverged from the fault-free distances — recovery "
               "is not exact")
        _check(bool(faulted.lost_ranks and faulted.recovered_by), "dist",
               f"the pinned fault plan killed no rank (lost="
               f"{faulted.lost_ranks}, recovered={len(faulted.recovered_by)})")
        # recovery must cost something: a free one means nothing died
        _check_below("dist", "fault-free makespan vs faulted",
                     build.makespan, faulted.makespan)

        # 2. the serving store + routed-vs-single exactness
        store = sc.build()
        router = _dist_ring()
        routed = RoutedEngine(store, router, cache_shards=cache_shards,
                              node_budget=DIST_NODE_BUDGET)
        single = QueryEngine(store, cache_shards=cache_shards)
        rng = np.random.default_rng(DIST_PROBE_SEED)
        pairs = [
            (int(u), int(v))
            for u, v in rng.integers(0, n, size=(DIST_PROBE_PAIRS, 2))
        ]

        def probe(when: str = "") -> int:
            """Routed vs single-node answers over the probe pairs; a
            crc32 over the routed answers' f8 bytes — one number that
            changes if any routed answer diverges from the store."""
            answers = []
            for u, v in pairs:
                got = float(routed.dist(u, v))
                want = float(single.dist(u, v))
                _check(got == want, "dist", f"routed answer for ({u}, {v}) "
                       f"is {got!r}, single-node store says {want!r}{when}")
                answers.append(got)
            arr = np.asarray(answers, dtype=np.float64)
            return zlib.crc32(arr.tobytes()) & 0xFFFFFFFF

        fingerprint = probe()
        _check(np.array_equal(routed.dist_batch(pairs),
                              single.dist_batch(pairs)), "dist",
               "routed dist_batch diverged from the single-node engine")

        # per-shard request loads of the pinned trace (what a serving
        # tier's per-shard counters would show) drive both the loss
        # drill's target and the rebalance
        trace = generate_trace(DIST_TRAFFIC, n)
        loads: Dict[int, float] = {s: 0.0 for s in range(store.num_shards)}
        for req in trace:
            loads[store.shard_of(req.u)] += 1.0
        hot_shard = max(loads, key=lambda s: (loads[s], -s))
        hot_node, _ = router.route(hot_shard)

        # kill the hot shard's primary; replication must keep every
        # answer byte-identical, via failovers
        routed.fail_node(hot_node)
        failover_fingerprint = probe(f" with node {hot_node} failed")
        drill_failovers = int(routed.stats["failovers"])
        _check(drill_failovers > 0, "dist", "failing the hot node produced "
               "no failovers — the probe never touched it?")
        _check(failover_fingerprint == fingerprint, "dist", "the answer "
               "fingerprint changed across a node failure")
        routed.restore_node(hot_node)

        # 3. skewed replay vs rebalanced replay: the p99 gate
        sizes = [store.shard_nbytes(i) for i in range(store.num_shards)]
        policy = AdmissionPolicy()
        cost = ServeCostModel()

        routed_replay = functools.partial(
            replay_virtual, trace, n=n, shard_rows=shard_rows,
            policy=policy, cost=cost, cache_shards=DIST_CACHE_SHARDS,
            optimized=True, shard_nbytes=sizes, node_budget=DIST_NODE_BUDGET,
            servers_per_node=DIST_SERVERS_PER_NODE,
        )

        skew_router = _dist_ring()
        skewed = routed_replay(router=skew_router)
        _check(skewed.counters["failovers"] == 0, "dist", "the healthy "
               f"skewed replay recorded {skewed.counters['failovers']} "
               "failovers")
        re_router = ShardRouter.from_dict(skew_router.to_dict())
        moves = re_router.rebalance(loads, max_moves=DIST_MAX_MOVES)
        _check(bool(moves), "dist",
               "rebalance made no moves on the skewed load profile")
        rebalanced = routed_replay(router=re_router)
        _check_below("dist", "rebalanced hot-shard p99 vs skewed",
                     rebalanced.percentile_latency(99),
                     skewed.percentile_latency(99))

        # 4. node-loss drill: hot node dies mid-trace, traffic fails
        # over to replicas, every request still gets an outcome
        mid = trace[len(trace) // 2].arrival
        loss = routed_replay(router=_dist_ring(),
                             node_down=((mid, hot_node),))
        _check(loss.counters["node_losses"] == 1, "dist", "the loss drill "
               f"recorded {loss.counters['node_losses']} node losses, "
               "expected 1")
        _check(loss.counters["failovers"] > 0, "dist", "no request failed "
               "over after the hot node died mid-replay")
        outcomes = sum(loss.counters[key] for key in _OUTCOMES)
        _check(outcomes == len(trace), "dist", f"{len(trace)} requests in, "
               f"{outcomes} outcomes out of the loss drill")

        dist: Dict[str, float] = {
            "dist.build.makespan": build.makespan,
            "dist.build.network_bytes": float(build.network_bytes),
            "dist.build.total_work": build.total_work,
            "dist.build.num_shards": float(build.num_shards),
            "dist.fault.makespan": faulted.makespan,
            "dist.fault.network_bytes": float(faulted.network_bytes),
            "dist.fault.lost_ranks": float(len(faulted.lost_ranks)),
            "dist.fault.recovered_shards": float(len(faulted.recovered_by)),
            "dist.route.answer_fingerprint": float(fingerprint),
            "dist.route.drill_failovers": float(drill_failovers),
            "dist.store.fingerprint": float(store.fingerprint()),
            **_replay_flat("dist.skew", skewed,
                           ("shard_loads", "node_saturated")),
            "dist.rebalanced.moves": float(len(moves)),
            **_replay_flat("dist.rebalanced", rebalanced, ("shard_loads",)),
            **_replay_flat("dist.loss", loss, (
                "failovers", "node_losses", "shard_loads",
            ), latency=False),
            "dist.loss.p99_ms": loss.percentile_latency(99) * 1e3,
        }
        artifact = sc.artifact(
            {
                "cluster": CLUSTER_FAST.name,
                "cluster_nodes": CLUSTER_FAST.num_nodes,
                "threads_per_node": CLUSTER_FAST.threads_per_node,
                "num_nodes": DIST_NODES,
                "replication": DIST_REPLICATION,
                "vnodes": DIST_VNODES,
                "hash_seed": DIST_HASH_SEED,
                "node_budget": DIST_NODE_BUDGET,
                "servers_per_node": DIST_SERVERS_PER_NODE,
                "max_moves": DIST_MAX_MOVES,
                "replay_cache_shards": DIST_CACHE_SHARDS,
                "traffic_requests": DIST_TRAFFIC.num_requests,
                "traffic_rate": DIST_TRAFFIC.rate,
                "traffic_zipf_s": DIST_TRAFFIC.zipf_s,
                "traffic_seed": DIST_TRAFFIC.seed,
                "traffic_hot_frac": DIST_TRAFFIC.hot_frac,
                "traffic_hot_width": DIST_TRAFFIC.hot_width,
            },
            dist=dist,
        )
        return artifact, sc.registry


#: curve artifact schema (uploaded by CI, never gated)
CURVE_SCHEMA_VERSION = "repro.serve.curve/1"


def run_codec_curve(**kwargs) -> Dict[str, object]:
    """Sweep every codec through the smoke; the accuracy-vs-latency curve.

    Each point is one full :func:`run_serve_smoke` (so every per-codec
    invariant is asserted), reduced to the fields that make the
    tradeoff legible: store bytes, bytes loaded per replay, p50/p99,
    certified vs observed error.
    """
    points = []
    for codec in codec_names():
        artifact, _ = run_serve_smoke(codec=codec, **kwargs)
        serve = artifact["serve"]
        points.append(
            {
                "codec": codec,
                "store_bytes": serve["serve.store.store_bytes"],
                "compression_ratio": serve["serve.store.compression_ratio"],
                "bytes_loaded": serve["serve.opt.bytes_loaded"],
                "certified_max_abs_error":
                    serve["serve.error.certified_max_abs_error"],
                "observed_max_abs_error":
                    serve["serve.error.observed_max_abs_error"],
                "mean_ms": serve["serve.opt.mean_ms"],
                "p50_ms": serve["serve.opt.p50_ms"],
                "p99_ms": serve["serve.opt.p99_ms"],
                "raw_speedup": serve["serve.opt.raw_speedup"],
                "alt_mean_ms": serve["serve.alt.mean_ms"],
                "alt_shard_loads": serve["serve.alt.shard_loads"],
            }
        )
    return {
        "schema": CURVE_SCHEMA_VERSION,
        "name": "serve-codec-curve",
        "points": points,
    }


#: what :func:`main` prints of each scenario's output: keys of the
#: artifact section named after the smoke, per-codec curve point keys
_HEADLINES: Dict[str, Tuple[str, ...]] = {
    "serve": (
        "serve.opt.shard_loads", "serve.naive.shard_loads",
        "serve.opt.mean_speedup", "serve.opt.raw_speedup",
        "serve.store.compression_ratio", "serve.alt.short_circuits",
        "serve.sat.degraded", "serve.sat.shed",
    ),
    "update": (
        "update.dirty_shards", "update.certified_clean_shards",
        "update.cost_ratio", "update.fingerprint",
    ),
    "dist": (
        "dist.fault.makespan", "dist.route.drill_failovers",
        "dist.skew.p99_ms", "dist.rebalanced.p99_ms", "dist.loss.failovers",
    ),
    "curve": (
        "store_bytes", "compression_ratio", "certified_max_abs_error",
        "mean_ms", "p99_ms",
    ),
}

#: flags that only some scenarios read, and those scenarios — anywhere
#: else they would be silently ignored, so they are refused
_SCENARIO_FLAGS: Dict[str, Tuple[str, ...]] = {
    "--epsilon": ("serve", "curve"),
    "--events": ("serve",),
    "--events-sample": ("serve",),
    "--request-trace": ("serve",),
}


def build_parser(add_help: bool = True) -> argparse.ArgumentParser:
    """The bench's flags; ``repro-apsp serve-bench`` adopts them as an
    argparse parent (``add_help=False``)."""
    parser = argparse.ArgumentParser(
        prog="repro.serve.bench",
        description="run the deterministic query-serving bench and "
        "write its BENCH artifact",
        add_help=add_help,
    )
    parser.add_argument(
        "--out", default="BENCH_serve.json", help="artifact path to write"
    )
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument(
        "--edge-factor", type=int, default=DEFAULT_EDGE_FACTOR
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--shard-rows", type=int, default=None,
        help=f"rows per shard (default {DEFAULT_SHARD_ROWS})",
    )
    parser.add_argument(
        "--cache-shards", type=int, default=None,
        help=f"LRU capacity in shards (default {DEFAULT_CACHE_SHARDS})",
    )
    parser.add_argument(
        "--codec", choices=codec_names(), default=None,
        help="shard codec to build and replay with (default raw)",
    )
    parser.add_argument(
        "--epsilon", type=float, default=None,
        help="ALT short-circuit gap (0 = exact-gap only; "
        f"default {DEFAULT_EPSILON}); serving replay and --curve only",
    )
    parser.add_argument(
        "--config", metavar="PATH", default=None,
        help="serialized repro.config.ServeConfig; its store/engine "
        "fields become the bench defaults (explicit flags still win)",
    )
    parser.add_argument(
        "--save-config", metavar="PATH", default=None,
        help="write the effective ServeConfig of this bench as JSON",
    )
    scenario = parser.add_mutually_exclusive_group()
    scenario.add_argument(
        "--curve", metavar="PATH", default=None,
        help="sweep every codec and write the accuracy-vs-latency "
        "curve JSON here instead of a single artifact",
    )
    scenario.add_argument(
        "--update", action="store_true",
        help="run the incremental-update smoke (byte-identity and cost "
        "gates) instead of the serving replay; artifact to --out",
    )
    scenario.add_argument(
        "--dist", action="store_true",
        help="run the multi-node smoke (cluster build, routing, "
        "rebalance and node-loss drills) instead; artifact to --out",
    )
    parser.add_argument(
        "--events", metavar="PATH", default=None,
        help="write the optimised replay's telemetry event log "
        "(deterministic JSONL, repro.serve.telemetry/1) here",
    )
    parser.add_argument(
        "--events-sample", type=float, default=None, metavar="FRAC",
        help="per-trace sampling fraction for --events (default 1.0; "
        "deterministic — the same traces are kept on every run)",
    )
    parser.add_argument(
        "--request-trace", metavar="PATH", default=None,
        help="export the slowest request (the latency histogram's top "
        "exemplar) as a Chrome/Perfetto trace JSON here",
    )
    return parser


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.4g}"


def run(args: argparse.Namespace, prog: str = "repro.serve.bench") -> int:
    """Run the scenario ``args`` (from :func:`build_parser`) selects;
    returns the exit code (2 for a flag the scenario does not read)."""
    scenario = ("update" if args.update else "dist" if args.dist
                else "curve" if args.curve is not None else "serve")
    for flag, readers in _SCENARIO_FLAGS.items():
        if getattr(args, flag[2:].replace("-", "_")) is not None \
                and scenario not in readers:
            print(f"{prog}: error: argument {flag}: not allowed with "
                  f"argument --{scenario}", file=sys.stderr)
            return 2
    if args.events_sample is not None and args.events is None:
        print(f"{prog}: error: argument --events-sample: not allowed "
              "without argument --events", file=sys.stderr)
        return 2
    from ..config import ServeConfig

    # explicit flags win over a --config file, which wins over the
    # bench's pinned defaults (same rule as repro-apsp solve)
    base = (ServeConfig.load(args.config) if args.config is not None
            else ServeConfig.from_kwargs(shard_rows=DEFAULT_SHARD_ROWS,
                                         cache_shards=DEFAULT_CACHE_SHARDS))
    cfg = base.with_overrides(**{
        key: value for key, value in (
            ("shard_rows", args.shard_rows),
            ("cache_shards", args.cache_shards),
            ("codec", args.codec),
            ("epsilon", args.epsilon),
        ) if value is not None
    })
    if cfg.store.epsilon is None:  # the bench always serves with a gap
        cfg = cfg.with_overrides(epsilon=DEFAULT_EPSILON)
    if args.save_config is not None:
        with open(args.save_config, "w", encoding="utf-8") as fh:
            fh.write(cfg.to_json(indent=2) + "\n")
        print(f"config saved: {args.save_config}")
    shard_rows, codec, epsilon = (
        cfg.store.shard_rows, cfg.store.codec, cfg.store.epsilon
    )
    cache_shards = cfg.engine.cache_shards
    common = dict(scale=args.scale, edge_factor=args.edge_factor,
                  seed=args.seed, shard_rows=shard_rows,
                  cache_shards=cache_shards)
    if scenario == "curve":
        curve = run_codec_curve(epsilon=epsilon, **common)
        with open(args.curve, "w", encoding="utf-8") as fh:
            json.dump(curve, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.curve}")
        for point in curve["points"]:
            print(f"  {point['codec']:<6} " + "  ".join(
                f"{key}={_fmt(point[key])}" for key in _HEADLINES["curve"]
            ))
        return 0
    if scenario == "serve":
        artifact, _ = run_serve_smoke(
            codec=codec, epsilon=epsilon, events_out=args.events,
            events_sample=(1.0 if args.events_sample is None
                           else args.events_sample),
            request_trace_out=args.request_trace, **common,
        )
    else:
        runner = run_update_smoke if scenario == "update" else run_dist_smoke
        artifact, _ = runner(codec=codec, **common)
    print(f"wrote {write_artifact(args.out, artifact)}")
    for key in _HEADLINES[scenario]:
        print(f"  {key:<36} {_fmt(artifact[scenario][key])}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

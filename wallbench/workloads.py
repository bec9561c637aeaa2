"""The three workloads: ``build``, ``serve`` and ``update``.

Every workload reports every end-to-end metric.  Each has a *primary*
phase that runs for ``--seconds`` and stresses its own layers, plus
short side phases of fixed length that measure the other metrics on
the same inputs:

=========  ===============================  =================================
workload   primary phase                    other metrics from
=========  ===============================  =================================
build      ParAPSP at 1 and 2 threads, then side serve on the built store;
           ``solve_to_store`` + ``verify``  side update of certified-clean
           (raw codec), repeated            batches with a reader
serve      2 closed-loop clients through    side solve passes; store build
           ``ServeFrontend`` → engine        in setup; side update as in
                                            ``build``
update     1 writer applying seeded edge    side solve passes; u16q store
           batches + 1 reader with          build in setup; side serve
           ``refresh()`` after each publish before the writer starts
=========  ===============================  =================================

All work runs in this one process on at most two threads at a time,
beside the driving thread's host-speed samples (:mod:`.hostspeed`);
every thread is joined and every temp store directory is removed
before :func:`run` returns.  Every end-to-end timing is scaled to
nominal host speed.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.baselines.scipy_ref import reference_apsp
from repro.core.par_apsp import par_apsp
from repro.exceptions import ReproError
from repro.graphs.build import from_arc_arrays
from repro.graphs.generators import attach_random_weights
from repro.graphs.rmat import rmat
from repro.serve import (
    EdgeUpdate,
    QueryEngine,
    ServeFrontend,
    TrafficSpec,
    apply_edge_updates,
    apply_updates_to_graph,
    generate_trace,
    solve_to_store,
)
from repro.trace import TraceRecorder

from . import checks, layers
from .hostspeed import HostClock

WORKLOADS = ("build", "serve", "update")

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("solve_1t_s", "s"),
    ("build_s", "s"),
    ("store_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("serve_qps", "req/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("update_s", "s"),
    ("update_read_qps", "req/s"),
    ("update_read_p99_ms", "ms"),
    ("correct_frac", "frac"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("order.busy_s", "s"),
    ("core.sweep_s", "s"),
    ("core.pops", "count"),
    ("core.edge_relaxations", "count"),
    ("core.row_merges", "count"),
    ("core.flag_hits", "count"),
    ("core.shard_solve_s", "s"),
    ("parallel.self_s", "s"),
    ("codecs.encode_s", "s"),
    ("codecs.encode_bytes", "B"),
    ("codecs.decode_s", "s"),
    ("codecs.decode_calls", "count"),
    ("store.write_s", "s"),
    ("store.write_bytes", "B"),
    ("store.verify_s", "s"),
    ("store.load_s", "s"),
    ("store.load_self_s", "s"),
    ("store.load_calls", "count"),
    ("store.load_bytes", "B"),
    ("engine.hits", "count"),
    ("engine.misses", "count"),
    ("engine.hit_rate", "frac"),
    ("engine.evictions", "count"),
    ("engine.coalesced", "count"),
    ("engine.point_s", "s"),
    ("engine.row_s", "s"),
    ("engine.topk_s", "s"),
    ("engine.refresh_s", "s"),
    ("admission.admitted", "count"),
    ("admission.degraded", "count"),
    ("admission.shed", "count"),
    ("admission.self_s", "s"),
    ("update.busy_s", "s"),
    ("update.self_s", "s"),
    ("update.batches", "count"),
    ("update.dirty_shards", "count"),
    ("update.certified_clean_shards", "count"),
    ("update.clean_shard_frac", "frac"),
    ("update.rows_resolved", "count"),
    ("update.cost_ratio", "frac"),
    ("bench.check_s", "s"),
    ("bench.idle_s", "s"),
    ("bench.hostspeed_s", "s"),
    ("residual_s", "s"),
    ("trace_overhead_frac", "frac"),
)

#: R-MAT (and weight) seed of the graph *structure*.  ``--seed``
#: relabels its vertices and draws the edits and the traffic; see
#: :func:`make_graph` and NOTES.md.
STRUCTURE_SEED = 2018
#: Graph500 edge factor of every graph
EDGE_FACTOR = 8
#: closed-loop clients of the serve phase
CLIENTS = 2
#: a client's pause after each answer, outside the timed request.  The
#: pause releases the interpreter lock, so the other client, waiting
#: for it, gets it.  Without it one client may retake the lock after
#: each short system call before the other wakes, and keep it until
#: the 5-ms switch interval forces a hand-off: runs flipped between
#: that regime (p99 1–5 ms, a third fewer requests) and the
#: alternating one
THINK_S = 1e-4


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the self-test shrinks them."""

    build_scale: int = 10
    update_scale: int = 9
    shards: int = 16
    cache_shards: int = 4
    setup_reps: int = 2
    #: relabelings solved once per thread count in each solve pass: the
    #: solver's work depends on vertex ids through tie order (±17% on
    #: unit weights), so a pass's mean over several labelings varies
    #: far less from seed to seed than one solve
    solve_graphs: int = 8
    #: solve passes of ``serve`` and ``update`` (``build`` runs one per
    #: iteration, two or three per run)
    side_solve_passes: int = 2
    #: seconds of the side serve phase
    side_serve_s: float = 6.0
    #: window of the serve throughput/latency medians
    window_s: float = 0.5
    #: insert-then-delete pairs of the side update phase: ``update_s``
    #: is the median of each kind, which five pairs left noisy (0.19)
    side_update_pairs: int = 12
    #: the side update writer's rest after each publish
    side_update_rest_s: float = 0.1
    #: batches of the update workload that dirty (almost) every shard
    dirty_batches: int = 4
    #: batches of the update workload that change no distance
    clean_batches: int = 12
    trace_requests: int = 20000


class Tally:
    """Attempted / failed operation counts of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def check(self, ok: bool) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
        return ok


@dataclass
class UpdatePlan:
    """A seeded edit sequence with the graph and exact matrix per generation."""

    batches: List[List[EdgeUpdate]]
    graphs: list
    exact: List[np.ndarray]
    kinds: List[str] = field(default_factory=list)


@dataclass
class Inputs:
    """Everything a workload's measured phases need, built in setup."""

    graph: object
    exact: np.ndarray
    #: ``(graph, reference)`` of the solve pass, the first being ``graph``:
    #: the exact matrix for weighted graphs, else its digest
    solve_set: list
    requests: list
    codec: str
    side_plan: Optional[UpdatePlan] = None
    plan: Optional[UpdatePlan] = None
    store: object = None
    build_s: float = 0.0


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


# -- inputs -------------------------------------------------------------


def make_graph(scale: int, seed: int, weighted: bool):
    """The fixed R-MAT structure (and weights) under a seeded relabeling.

    A fresh R-MAT draw per seed moves the solver's work by ±10%; a
    relabeling keeps the structure and changes every id-dependent
    choice: shard membership, cache keys, tie order in the sweeps.
    """
    base = rmat(scale, EDGE_FACTOR, seed=STRUCTURE_SEED)
    if weighted:
        base = attach_random_weights(base, weight_range=(0.5, 10.0),
                                     seed=STRUCTURE_SEED)
    n = base.num_vertices
    perm = np.random.default_rng(seed).permutation(n)
    arcs = base.arc_array()
    keep = arcs[:, 0] < arcs[:, 1]
    return from_arc_arrays(
        perm[arcs[keep, 0]], perm[arcs[keep, 1]], base.weights[keep],
        num_vertices=n, directed=False, name=f"rmat{scale}-s{seed}",
    )


def make_requests(n: int, seed: int, count: int, shards: int, hot_shards: int) -> list:
    """The Zipf(1.1) trace: 93% point, 5% top-10, 2% row.

    The trace is drawn once, from ``STRUCTURE_SEED``.  Its hottest
    source vertices are dealt round-robin over ``hot_shards`` shards,
    one more than the cache holds, and the rest fill the other shards.
    ``seed`` then relabels vertices by a permutation that moves each
    shard's rows onto the rows of one other shard: it renames shards but
    keeps the sequence of shard accesses, and with it the cache's hits
    and misses.

    Why: a plain Zipf trace puts about 0.42 of requests on cached
    shards, so the median sits on the edge between hit and miss
    latencies and jumps between them from run to run.  Here 0.63–0.66
    hit (4 of 16 shards cached): the median is a hit, the p99 a miss,
    and the hot set still exceeds the cache.
    """
    if n % shards:
        raise ValueError(f"{shards} shards do not split {n} vertices evenly")
    rows = n // shards
    spec = TrafficSpec(num_requests=count, zipf_s=1.1, seed=STRUCTURE_SEED,
                       row_frac=0.02, topk_frac=0.05, topk_k=10)
    trace = generate_trace(spec, n)
    heat = np.argsort(-np.bincount([r.u for r in trace], minlength=n), kind="stable")
    layout = np.arange(n)
    hot = np.arange(hot_shards * rows)
    layout[hot] = (hot % hot_shards) * rows + hot // hot_shards
    rng = np.random.default_rng(seed + 3)
    scramble = np.concatenate([b * rows + rng.permutation(rows)
                               for b in rng.permutation(shards)])
    relabel = np.empty(n, dtype=np.int64)
    relabel[heat] = scramble[layout]
    relabel = relabel.tolist()
    return [replace(r, u=relabel[r.u], v=relabel[r.v] if r.v >= 0 else -1)
            for r in trace]


def _hubs(graph, count: int = 16) -> set:
    degrees = np.diff(graph.indptr)
    return {int(v) for v in np.argsort(-degrees, kind="stable")[:count]}


def _plan_from(graph, exact, batches, kinds, exact_fn) -> UpdatePlan:
    graphs = [graph]
    for batch in batches:
        graphs.append(apply_updates_to_graph(graphs[-1], batch))
    return UpdatePlan(batches, graphs, [exact] + [exact_fn(g) for g in graphs[1:]],
                      kinds)


def side_update_plan(graph, exact, seed: int, pairs: int) -> UpdatePlan:
    """Insert a slack edge, then delete it, ``pairs`` times.

    Each inserted edge weighs ``d(u, v) + 1``, so no distance changes
    and every batch takes the certified-clean publish path.
    """
    rng = np.random.default_rng(seed + 1)
    hubs = _hubs(graph)
    n = graph.num_vertices
    existing = {tuple(a) for a in graph.arc_array().tolist()}
    batches, kinds = [], []
    while len(batches) < 2 * pairs:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        d = exact[u, v]
        if u in hubs or v in hubs or not np.isfinite(d) or d < 2 \
                or (u, v) in existing:
            continue
        existing.add((u, v))
        existing.add((v, u))
        batches += [[EdgeUpdate(u, v, float(d) + 1.0)], [EdgeUpdate(u, v, None)]]
        kinds += ["insert", "delete"]
    return _plan_from(graph, exact, batches, kinds, lambda g: exact)


def update_plan(graph, exact, seed: int, dirty: int, clean: int) -> UpdatePlan:
    """``dirty`` leaf-edge batches and ``clean`` slack-edge batches.

    A leaf edge is the only way into its leaf, so reweighting or
    deleting it changes ``d(s, leaf)`` for every source of the big
    component: the update re-solves (almost) every shard.  A slack edge
    weighs more than 1.06 × ``d(u, v)``, so it lies on no shortest path
    before or after a ±5% reweight or a delete: no distance changes.
    Neither kind alters the other's class, so the mix — and so the
    mean batch cost — is the same for every seed; the seed picks the
    edges, the operations and their order.
    """
    rng = np.random.default_rng(seed + 2)
    n = graph.num_vertices
    hubs = _hubs(graph)
    degrees = np.diff(graph.indptr)
    reach = np.isfinite(exact).sum(axis=1)
    arcs = graph.arc_array()
    keep = arcs[:, 0] < arcs[:, 1]
    leaf, slack = [], []
    for (u, v), w in zip(arcs[keep].tolist(), graph.weights[keep].tolist()):
        if (degrees[u] == 1) != (degrees[v] == 1) and reach[u] > n // 2:
            leaf.append((u, v, w))
        elif w > 1.06 * exact[u, v] and u not in hubs and v not in hubs:
            # off the top degrees, so a delete cannot move the landmarks
            slack.append((u, v, w))
    picks = [leaf[i] for i in rng.choice(len(leaf), size=dirty, replace=False)]
    picks += [slack[i] for i in rng.choice(len(slack), size=clean, replace=False)]
    classes = ["dirty"] * dirty + ["clean"] * clean
    order = rng.permutation(len(picks))
    batches, kinds = [], []
    for i in order:
        u, v, w = picks[i]
        op = int(rng.integers(0, 3))
        weight = (w * 1.05, None, w * 0.95)[op]
        batches.append([EdgeUpdate(u, v, weight)])
        kinds.append(f"{classes[i]}:{('up', 'delete', 'down')[op]}")
    return _plan_from(graph, exact, batches, kinds, reference_apsp)


def build_store(graph, path: Path, codec: str, shards: int):
    """Graph to a verified store (what ``build_s`` times)."""
    with obs.span("store.solve_to_store"):
        store = solve_to_store(
            graph, path, shard_rows=-(-graph.num_vertices // shards),
            codec=codec, use_flags=False,
        )
    with obs.span("store.verify"):
        store.verify()
    return store


def setup(workload: str, seed: int, sizes: Sizes, tmp: Path, tally: Tally,
          clock: HostClock) -> Inputs:
    """Build one workload's inputs from its seed (timed as ``setup_s``).

    Runs while ``clock`` samples, so the store build can be scaled.
    """
    weighted = workload == "update"
    scale = sizes.update_scale if weighted else sizes.build_scale
    seeds = [seed] + [int(x) for x in np.random.default_rng(seed).integers(
        2**31, size=sizes.solve_graphs - 1)]
    solve_set = []
    for label_seed in seeds:
        graph = make_graph(scale, label_seed, weighted)
        exact = reference_apsp(graph)
        if not solve_set:
            inputs = Inputs(
                graph=graph, exact=exact, solve_set=solve_set,
                requests=make_requests(graph.num_vertices, seed, sizes.trace_requests,
                                       sizes.shards, sizes.cache_shards + 1),
                codec="u16q" if weighted else "raw",
            )
        # unit weights must be solved bitwise, so a digest is all the check needs
        solve_set.append((graph, exact if weighted else checks.digest(exact)))
    graph, exact = inputs.graph, inputs.exact
    if workload == "update":
        inputs.plan = update_plan(graph, exact, seed, sizes.dirty_batches,
                                  sizes.clean_batches)
    else:
        inputs.side_plan = side_update_plan(graph, exact, seed, sizes.side_update_pairs)
    if workload != "build":  # build makes its stores in the measured phase
        gc.collect()  # a collection of set-up's garbage is not the build's
        t0 = time.perf_counter()
        try:
            inputs.store = build_store(graph, Path(tempfile.mkdtemp(dir=tmp)) / "store",
                                       inputs.codec, sizes.shards)
        except ReproError:
            tally.check(False)  # measure() skips the phases that need the store
            return inputs
        inputs.build_s = clock.seconds(t0, time.perf_counter())
        tally.check(checks.store_matches(inputs.store, exact))
    return inputs


# -- phases -------------------------------------------------------------


def _call(front: ServeFrontend, req):
    with obs.span(f"admission.{req.kind}"):
        if req.kind == "point":
            return front.point(req.u, req.v)
        if req.kind == "row":
            return front.row(req.u)
        return front.topk(req.u, req.k)


def _timed_request(front, req):
    t0 = time.perf_counter()
    try:
        resp = _call(front, req)
    except ReproError:
        resp = None
    return resp, time.perf_counter() - t0


def _join(threads: List[threading.Thread]) -> None:
    for thread in threads:
        thread.join(timeout=120.0)
    alive = [t.name for t in threads if t.is_alive()]
    if alive:
        raise RuntimeError(f"benchmark threads did not finish: {alive}")


class RequestLog:
    """Completion times and latencies of one client, 16 bytes a request."""

    def __init__(self) -> None:
        self.stamps = array("d")
        self.latencies = array("d")

    def add(self, latency: float) -> None:
        self.stamps.append(time.perf_counter())
        self.latencies.append(latency)


def _windows(logs: List[RequestLog], t0: float, t1: float, width: float,
             clock: HostClock) -> List[Tuple[float, np.ndarray, np.ndarray]]:
    """``(slowdown, stamps, latencies)`` of each whole ``width``-s window.

    The latencies are scaled to nominal host speed by the window's own
    slowdown, steal included; a window without requests is left out.
    """
    stamps = np.concatenate([np.asarray(log.stamps, dtype=float) for log in logs])
    latencies = np.concatenate([np.asarray(log.latencies, dtype=float) for log in logs])
    window = (stamps - t0) // width
    out = []
    for w in range(max(1, int((t1 - t0) // width))):
        mine = window == w
        if mine.any():
            lo = t0 + w * width
            slow = clock.slowdown(lo, lo + width, steal=True)
            out.append((slow, stamps[mine], latencies[mine] / slow))
    return out


def serve_phase(store, exact, requests, seconds: float, sizes: Sizes,
                tally: Tally, clock: HostClock) -> Dict[str, float]:
    """``CLIENTS`` closed-loop clients for ``seconds``; every answer checked.

    Throughput, p50 and p99 are medians over ``window_s`` windows, so a
    short burst of host noise does not move the run's figure.
    """
    front = ServeFrontend(QueryEngine(store, cache_shards=sizes.cache_shards))
    stop = threading.Event()
    logs = [RequestLog() for _ in range(CLIENTS)]
    err = store.max_abs_error

    def client(c: int) -> None:
        i = c
        with layers.driver(CLIENTS):
            while True:
                req = requests[i % len(requests)]
                resp, latency = _timed_request(front, req)
                logs[c].add(latency)
                with obs.span("bench.check"):
                    tally.check(checks.response_matches(req, resp, exact, err))
                i += CLIENTS
                if stop.is_set():
                    break
                time.sleep(THINK_S)

    threads = [threading.Thread(target=client, args=(c,), name=f"wallbench-client-{c}")
               for c in range(CLIENTS)]
    t0 = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        clock.sample_until(t0 + seconds)
    finally:
        stop.set()
        _join(threads)
    # medians over windows, so a short burst of noise does not move them
    found = _windows(logs, t0, t0 + seconds, sizes.window_s, clock)
    return {
        "serve_qps": _median([slow * st.size / sizes.window_s for slow, st, _ in found]),
        "serve_p50_ms": 1e3 * _median([np.percentile(lat, 50) for _, _, lat in found]),
        "serve_p99_ms": 1e3 * _median([np.percentile(lat, 99) for _, _, lat in found]),
    }


def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def update_phase(store, plan: UpdatePlan, requests, rest_s: float, sizes: Sizes,
                 tally: Tally, clock: HostClock,
                 fresh_check: bool) -> Tuple[Dict[str, float], list]:
    """One writer publishing ``plan``, resting ``rest_s`` after each
    publish; one reader refreshing.

    Runs until the writer is done.  Each read is checked against the
    exact matrix of the generation it was served from; the final store
    must be byte-identical to a fresh build of the final graph
    (``fresh_check``) or, when the plan changes no distance, still hold
    the exact matrix.
    """
    engine = QueryEngine(store, cache_shards=sizes.cache_shards)
    front = ServeFrontend(engine)
    stop = threading.Event()
    writer_done = threading.Event()
    lock = threading.Lock()
    published = [0]
    spans: List[Tuple[float, float]] = []
    results: list = []
    log = RequestLog()
    base_gen = store.generation

    def writer() -> None:
        current = store
        try:
            with layers.driver(2):
                for i, batch in enumerate(plan.batches):
                    before = _dir_bytes(current.path)
                    start = time.perf_counter()
                    try:
                        with obs.span("update.apply"):
                            result = apply_edge_updates(current, plan.graphs[i], batch)
                    except ReproError:
                        tally.check(False)
                        return
                    spans.append((start, time.perf_counter()))
                    obs.counter_add("store.write_bytes",
                                    _dir_bytes(current.path) - before)
                    results.append(result)
                    current = result.store
                    with lock:
                        published[0] += 1
                    with obs.span("bench.idle"):
                        if stop.wait(rest_s):
                            return
        finally:
            writer_done.set()

    def reader() -> None:
        seen = 0
        i = 0
        with layers.driver(2):
            while True:
                with lock:
                    count = published[0]
                if count != seen:
                    with obs.span("engine.refresh"):
                        engine.refresh()
                    seen = count
                current = engine.store  # only this thread refreshes it
                req = requests[i % len(requests)]
                resp, latency = _timed_request(front, req)
                log.add(latency)
                with obs.span("bench.check"):
                    tally.check(checks.response_matches(
                        req, resp, plan.exact[current.generation - base_gen],
                        current.max_abs_error))
                i += 1
                if stop.is_set():
                    break

    threads = [threading.Thread(target=writer, name="wallbench-writer"),
               threading.Thread(target=reader, name="wallbench-reader")]
    t0 = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        clock.sample_until(t0 + len(plan.batches) * (rest_s + 60.0), stop=writer_done)
    finally:
        stop.set()
        _join(threads)
    t1 = time.perf_counter()

    with layers.driver(1), obs.span("bench.check"):
        tally.check(len(results) == len(plan.batches))
        if results:
            final = results[-1].store
            final_graph = plan.graphs[len(results)]
            if fresh_check:
                path = Path(tempfile.mkdtemp(dir=store.path.parent)) / "fresh"
                try:
                    fresh = solve_to_store(
                        final_graph, path, shard_rows=store.shard_rows,
                        codec=store.codec_name, use_flags=False)
                    tally.check(checks.stores_identical(final, fresh))
                finally:
                    shutil.rmtree(path.parent, ignore_errors=True)
            else:
                tally.check(checks.store_matches(final, plan.exact[len(results)]))
    by_kind: Dict[str, List[float]] = {}
    for kind, (start, end) in zip(plan.kinds, spans):
        by_kind.setdefault(kind.split(":")[0], []).append(
            clock.seconds(start, end, steal=True))
    # An apply holds the interpreter lock, so reads stall beside it,
    # each for some turns of the interpreter's switch interval.  The
    # rate counts the reads while the writer rests, over the time it
    # rests: a mean over all reads would swing with the applies' share
    # of the phase, which moves with the host.
    def resting(stamps: np.ndarray) -> np.ndarray:
        mask = np.ones(stamps.size, dtype=bool)
        for start, stop_at in spans:
            mask &= (stamps < start) | (stamps > stop_at)
        return mask

    found = [(slow, st, lat, resting(st))
             for slow, st, lat in _windows([log], t0, t1, sizes.window_s, clock)]
    end = t0 + int((t1 - t0) // sizes.window_s) * sizes.window_s
    rest = (end - t0) - sum(max(0.0, min(stop_at, end) - max(start, t0))
                            for start, stop_at in spans)
    # The tail is that of the reads beside a re-solve, in wall time: a
    # stall lasts whole switch intervals (5 ms), which do not slow with
    # the host.  A p99 over all reads flipped between the stalled and
    # the free reads, which are 99% of them.  Publishes that re-solve
    # nothing (the side updates) leave too few stalled reads for a p99
    # (a few hundred, spread over 5–40 ms): there, the median window's
    # p99 of the reads while the writer rests, which holds the cache
    # refills after each refresh.
    resolves = [span for span, result in zip(spans, results) if result.dirty_shards]
    raw_stamps = np.asarray(log.stamps, dtype=float)
    beside = np.zeros(raw_stamps.size, dtype=bool)
    for start, stop_at in resolves:
        beside |= (raw_stamps >= start) & (raw_stamps <= stop_at)
    if beside.any():
        p99 = float(np.percentile(np.asarray(log.latencies, dtype=float)[beside], 99))
    else:
        p99 = _median([np.percentile(lat[mask], 99) for _, _, lat, mask in found
                       if mask.any()])
    return {
        # mean per batch, from each class's median (see update_plan)
        "update_s": sum(len(v) * _median(v) for v in by_kind.values())
        / max(1, len(spans)),
        "update_read_qps": sum(slow * mask.sum() for slow, _, _, mask in found) / rest
        if rest > 0 else 0.0,
        "update_read_p99_ms": 1e3 * p99,
    }, results


def solve_phase(solve_set, tally: Tally, clock: HostClock):
    """ParAPSP on the threads backend, each graph at 1 and at 2 threads.

    Returns the mean solve time over the set at 1 and at 2 threads, and
    the operation counts of the 2-thread solves.

    Unit weights must match the reference bitwise; weighted graphs may
    differ in the last bits, because flag reuse sums paths in another
    order.
    """
    times: Dict[int, List[float]] = {1: [], 2: []}
    ops = []
    for graph, reference in solve_set:
        for threads in (1, 2):
            t0 = time.perf_counter()
            try:
                result = par_apsp(graph, num_threads=threads, backend="threads")
            except ReproError:
                tally.check(False)
                continue
            t1 = time.perf_counter()
            if threads == 2:
                clock.sample_pair()
            else:
                clock.sample(2)
            times[threads].append(clock.seconds(t0, t1, pair=threads == 2))
            if threads == 2:
                ops.append(result.ops)
            with obs.span("bench.check"):
                if isinstance(reference, np.ndarray):
                    ok = checks.rows_match(result.dist, reference, 1e-12)
                else:
                    ok = checks.digest(result.dist) == reference
                tally.check(ok)
    return _mean(times[1]), _mean(times[2]), ops


def build_phase(inputs: Inputs, seconds: float, sizes: Sizes, tmp: Path,
                tally: Tally, clock: HostClock) -> Tuple[Dict[str, float], list]:
    """Repeat: ParAPSP at 1 and 2 threads, then graph → verified store.

    Runs at least once and then until ``seconds`` have passed, whether
    or not the builds succeed.
    """
    graph, exact = inputs.graph, inputs.exact
    solve_1t, solve_2t, builds, ops = [], [], [], []
    deadline = time.perf_counter() + seconds
    attempts = 0
    with layers.driver(1):
        while attempts == 0 or time.perf_counter() < deadline:
            attempts += 1
            found = solve_phase(inputs.solve_set, tally, clock)
            solve_1t.append(found[0])
            solve_2t.append(found[1])
            ops += found[2]
            _drop_store(inputs)
            path = Path(tempfile.mkdtemp(dir=tmp)) / "store"
            gc.collect()  # a collection of the solves' garbage is not the build's
            t0 = time.perf_counter()
            try:
                with clock.sampling():
                    store = build_store(graph, path, "raw", sizes.shards)
            except ReproError:
                tally.check(False)
                shutil.rmtree(path.parent, ignore_errors=True)
                continue
            t1 = time.perf_counter()
            obs.counter_add("store.write_bytes", _dir_bytes(path))
            builds.append(clock.seconds(t0, t1))
            inputs.store = store
            with obs.span("bench.check"):
                tally.check(checks.store_matches(store, exact))
    return {
        "solve_s": _median(solve_2t),
        "solve_1t_s": _median(solve_1t),
        "build_s": _median(builds),
    }, ops


def _settle() -> None:
    """Collect the garbage of earlier phases and freeze what survives.

    Frozen objects stay out of the collector's scans, so a collection
    during the next phase does not pause for the inputs or for the
    previous phase's leftovers.
    """
    gc.collect()
    gc.freeze()


@contextlib.contextmanager
def _one_cpu() -> Iterator[None]:
    """Keep this thread, and the threads it starts, on one CPU.

    The serve and update phases run two threads that hand the
    interpreter lock to each other after every request and every
    system call.  Across two virtual CPUs each hand-off wakes the other
    one, and how long that takes depends on the host's other tenants:
    ``serve_p99_ms`` flipped between 0.29 and 0.67 ms from run to run,
    and back, on one seed.  On one CPU a hand-off is a plain context
    switch (0.42–0.45 ms over six runs).  The solves keep both CPUs.
    """
    try:
        allowed = os.sched_getaffinity(0)
    except AttributeError:  # no affinity control on this platform
        yield
        return
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _drop_store(inputs: Optional[Inputs]) -> None:
    if inputs is not None and inputs.store is not None:
        shutil.rmtree(inputs.store.path.parent, ignore_errors=True)
        inputs.store = None


def measure(workload: str, inputs: Inputs, seconds: float, sizes: Sizes,
            tmp: Path, tally: Tally, clock: HostClock):
    """The measured phases; returns (metrics, solver ops, update results).

    Without a store (every build failed, as counted in ``tally``) the
    serve and update metrics are 0.
    """
    ops: list = []
    metrics = {name: 0.0 for name, _ in END_TO_END}
    if workload == "build":
        found, ops = build_phase(inputs, seconds, sizes, tmp, tally, clock)
        metrics.update(found)
    else:
        solve_1t, solve_2t = [], []
        with layers.driver(1):
            for _ in range(sizes.side_solve_passes):
                found = solve_phase(inputs.solve_set, tally, clock)
                solve_1t.append(found[0])
                solve_2t.append(found[1])
                ops += found[2]
        metrics.update(solve_s=_median(solve_2t), solve_1t_s=_median(solve_1t))
    store = inputs.store
    if store is None:
        return metrics, ops, []
    serve_s = seconds if workload == "serve" else sizes.side_serve_s
    _settle()
    with _one_cpu():
        metrics.update(serve_phase(store, inputs.exact, inputs.requests, serve_s,
                                   sizes, tally, clock))
    if workload == "update":
        # rests fill a quarter of ``seconds``; the applies take what they take
        plan, rest_s = inputs.plan, seconds / (4 * len(inputs.plan.batches))
    else:
        plan, rest_s = inputs.side_plan, sizes.side_update_rest_s
    _settle()
    with _one_cpu():
        found, updates = update_phase(store, plan, inputs.requests, rest_s, sizes, tally,
                                      clock, fresh_check=workload == "update")
    metrics.update(found)
    metrics["store_bytes"] = float(store.store_bytes())
    return metrics, ops, updates


# -- runs ---------------------------------------------------------------


def _unit_cost(workload: str, metrics: Dict[str, float]) -> float:
    """Seconds per unit of primary work (for the tracing overhead)."""
    if workload == "build":
        return metrics["build_s"] + metrics["solve_s"] + metrics["solve_1t_s"]
    if workload == "serve":
        return 1.0 / metrics["serve_qps"] if metrics["serve_qps"] else 0.0
    return metrics["update_s"]


def _reset_peak_rss() -> None:
    """Start a new resident-set high-water mark (Linux; else a no-op)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """The resident-set high-water mark since :func:`_reset_peak_rss`."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(recorder: TraceRecorder, wall: float, ops: list,
                   updates: list) -> Tuple[Dict[str, float], List[str]]:
    found, unknown = layers.breakdown(recorder.timeline, wall)
    counters = recorder.counters()
    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update(found)
    out["wall_s"] = wall
    for field_name in ("pops", "edge_relaxations", "row_merges", "flag_hits"):
        out[f"core.{field_name}"] = _median([getattr(o, field_name) for o in ops])
    for name, key in (
        ("codecs.encode_bytes", "codecs.encode_bytes"),
        ("codecs.decode_calls", "codecs.decode_calls"),
        ("store.load_bytes", "codecs.decode_bytes"),
        ("store.load_calls", "serve.store.shard_loads"),
        ("store.write_bytes", "store.write_bytes"),
        ("engine.hits", "serve.cache.hits"),
        ("engine.misses", "serve.cache.misses"),
        ("engine.evictions", "serve.cache.evictions"),
        ("engine.coalesced", "serve.cache.coalesced"),
        ("admission.admitted", "serve.admission.admitted"),
        ("admission.degraded", "serve.admission.degraded"),
        ("admission.shed", "serve.admission.shed"),
    ):
        out[name] = float(counters.get(key, 0.0))
    fetches = out["engine.hits"] + out["engine.misses"]
    out["engine.hit_rate"] = out["engine.hits"] / fetches if fetches else 0.0
    shards = sum(r.store.num_shards for r in updates)
    out["update.batches"] = float(len(updates))
    out["update.dirty_shards"] = float(sum(len(r.dirty_shards) for r in updates))
    out["update.certified_clean_shards"] = float(
        sum(r.certified_clean_shards for r in updates))
    out["update.clean_shard_frac"] = (
        out["update.certified_clean_shards"] / shards if shards else 0.0)
    out["update.rows_resolved"] = float(sum(r.rows_resolved for r in updates))
    out["update.cost_ratio"] = (
        float(np.mean([r.cost_ratio for r in updates])) if updates else 0.0)
    return out, unknown


def run(workload: str, seed: int, seconds: float, trace: bool, tmp_root: Path,
        sizes: Sizes = Sizes()) -> Dict[str, object]:
    """One benchmark run; returns the result object ``run.py`` prints.

    With ``trace`` the measured phases run twice — untraced, then under
    a :class:`TraceRecorder` — and the result carries the per-layer
    metrics (plus ``unknown_spans`` for the self-test).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    tally = Tally()
    clock = HostClock()
    tmp_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    inputs: Optional[Inputs] = None
    extra: Dict[str, object] = {}
    try:
        # a traced run measures twice, each on fresh inputs: untraced
        # for the overhead baseline, then under the recorder
        for traced in ((False, True) if trace else (False,)):
            setups, builds = [], []
            for _ in range(1 if trace else sizes.setup_reps):
                _drop_store(inputs)
                inputs = None  # before the next set is built beside it
                t0 = time.perf_counter()
                with clock.sampling():
                    inputs = setup(workload, seed, sizes, tmp, tally, clock)
                t1 = time.perf_counter()
                setups.append(clock.seconds(t0, t1))
                builds.append(inputs.build_s)
            _settle()
            if not traced:
                _reset_peak_rss()
                metrics, _, _ = measure(workload, inputs, seconds, sizes, tmp, tally, clock)
                peak_rss_mb = _peak_rss_mb()
                if workload != "build":  # its stores were built in setup
                    metrics["build_s"] = _median(builds)
                continue
            recorder = TraceRecorder()
            with obs.use_registry(recorder), layers.instrument_codecs():
                t0 = time.perf_counter()
                found, ops, updates = measure(workload, inputs, seconds, sizes, tmp,
                                              tally, clock)
                wall = time.perf_counter() - t0
            values, extra["unknown_spans"] = _layer_metrics(recorder, wall, ops, updates)
            base = _unit_cost(workload, metrics)
            values["trace_overhead_frac"] = (
                _unit_cost(workload, found) / base - 1.0 if base else 0.0)
        if not trace:
            values = metrics
            values["setup_s"] = _median(setups)
            values["peak_rss_mb"] = peak_rss_mb
            values["correct_frac"] = 1.0 - tally.failed / max(1, tally.attempted)
    finally:
        gc.unfreeze()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run's files, or already gone
    return {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in (PER_LAYER if trace else END_TO_END)},
        **extra,
    }

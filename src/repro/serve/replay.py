"""Trace replay: deterministic virtual time and real threads.

Two replays of the same :mod:`repro.serve.traffic` trace:

* :func:`replay_virtual` — a discrete-event model on the
  :class:`repro.simx.engine.ThreadClockQueue` core: one virtual serve
  node (or one per node of a routed tier), each with its virtual
  servers and LRU shard cache, in-flight coalescing, point
  micro-batching (single node only) and the per-class admission policy,
  all advancing a virtual clock through a :class:`ServeCostModel`.
  Fully deterministic — this is what CI gates (`latency percentiles
  don't depend on the machine CI happens to run on`_, same reasoning as
  ``repro.simx``).
* :func:`replay_threaded` — the same trace pushed through the *real*
  :class:`~repro.serve.admission.ServeFrontend` on a thread pool.
  Exercises the true locking/coalescing code and yields wall-clock
  latencies; never gated (wall time is noise in CI), but the bench
  cross-checks that both replays agree on exact-answer values.

.. _latency percentiles don't depend on the machine CI happens to run on:
   replacing time with arithmetic is the whole point of the simulator.

The virtual cache model deliberately mirrors :class:`QueryEngine`
semantics (LRU by shard id, single-flight loads) but tracks only shard
*ids* and load-completion times, never data — replaying a million
requests costs a millisecond per thousand, not gigabytes.

Both replays carry the request-scoped telemetry of
:mod:`repro.serve.telemetry`: every request gets a deterministic trace
id (:func:`~repro.serve.telemetry.make_trace_id` of its sequence
number), the virtual replay emits its full lifecycle at virtual
timestamps into an optional collector (byte-identical across runs —
the CI determinism gate), and :class:`ReplayResult` keeps arrivals and
trace ids next to latencies so SLO evaluation and exemplar-carrying
histograms work identically over either replay.
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ServeError
from ..obs.hist import LatencyHistogram
from ..simx.engine import ThreadClockQueue
from .admission import AdmissionPolicy, ServeFrontend
from .telemetry import TelemetryCollector, make_trace_id
from .traffic import Request

__all__ = ["ServeCostModel", "ReplayResult", "replay_virtual",
           "replay_threaded"]


@dataclass(frozen=True)
class ServeCostModel:
    """Virtual service costs, in virtual seconds.

    ``load_base + load_per_mb × shard_MB`` models a shard read (seek
    plus streaming); a cache hit costs nothing; everything else is
    CPU-side work.  Values are stylised — the bench's claims are
    *relative* (optimised vs naive, codec vs codec, on identical
    costs), so only the orderings matter: per-MB streaming
    dominating the fixed seek for shards of tens of KB and up (which is
    what lets compressed codecs convert byte savings into latency).
    """

    load_base: float = 2e-4
    load_per_mb: float = 0.064
    point_cost: float = 5e-6
    gather_cost: float = 2e-5
    row_cost: float = 2e-4
    topk_cost: float = 3e-4
    approx_cost: float = 1e-5

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)) or isinstance(
                value, bool
            ) or not 0.0 <= float(value) < math.inf:
                raise ServeError(
                    f"{f.name} must be a finite number >= 0, got {value!r}"
                )
            object.__setattr__(self, f.name, float(value))

    def load_cost(self, shard_bytes: int) -> float:
        return self.load_base + self.load_per_mb * (shard_bytes / 2**20)


@dataclass
class ReplayResult:
    """Latencies (seconds, per class) and event counters of one replay.

    ``arrivals`` and ``trace_ids`` run parallel to ``latencies`` (same
    class keys, same per-class order), so each recorded sample knows
    *when* its request arrived (SLO windowing) and *which* request it
    was (histogram exemplars, ``repro-apsp monitor``'s slowest list).
    """

    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {"point": [], "row": [], "topk": []}
    )
    arrivals: Dict[str, List[float]] = field(
        default_factory=lambda: {"point": [], "row": [], "topk": []}
    )
    trace_ids: Dict[str, List[Optional[str]]] = field(
        default_factory=lambda: {"point": [], "row": [], "topk": []}
    )
    counters: Dict[str, int] = field(
        default_factory=lambda: {
            "admitted": 0, "degraded": 0, "shed": 0,
            "shard_loads": 0, "cache_hits": 0, "coalesced": 0,
            "batches": 0, "gathers": 0,
            "short_circuits": 0, "approx": 0, "bytes_loaded": 0,
            # multi-node routing (all zero in single-node replays)
            "failovers": 0, "node_losses": 0, "node_saturated": 0,
        }
    )
    #: cached ascending latency array, invalidated by count change
    _sorted: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _sorted_count: int = field(default=-1, repr=False, compare=False)

    def record(
        self,
        klass: str,
        latency: float,
        *,
        arrival: float = 0.0,
        trace_id: Optional[str] = None,
    ) -> None:
        """Record one answered request of ``klass``."""
        self.latencies[klass].append(latency)
        self.arrivals[klass].append(arrival)
        self.trace_ids[klass].append(trace_id)

    def all_latencies(self) -> np.ndarray:
        merged: List[float] = []
        for values in self.latencies.values():
            merged.extend(values)
        return np.asarray(merged, dtype=np.float64)

    def mean_latency(self) -> float:
        lat = self._sorted_latencies()
        return float(lat.mean()) if len(lat) else 0.0

    def _sorted_latencies(self) -> np.ndarray:
        """Sort once, reuse until more samples are recorded."""
        total = sum(len(values) for values in self.latencies.values())
        if self._sorted is None or self._sorted_count != total:
            merged = self.all_latencies()
            merged.sort()
            self._sorted = merged
            self._sorted_count = total
        return self._sorted

    def percentile_latency(self, q: float) -> float:
        """Exact q-th percentile (numpy's linear interpolation).

        O(1) after the first call at a given sample count — the sorted
        array is cached, instead of re-sorting the full latency list on
        every percentile the bench asks for.
        """
        lat = self._sorted_latencies()
        if not len(lat):
            return 0.0
        k = (len(lat) - 1) * (float(q) / 100.0)
        lo = math.floor(k)
        hi = math.ceil(k)
        if lo == hi:
            return float(lat[lo])
        return float(lat[lo] + (lat[hi] - lat[lo]) * (k - lo))

    def hit_rate(self) -> float:
        total = self.counters["cache_hits"] + self.counters["shard_loads"]
        return self.counters["cache_hits"] / total if total else 1.0

    def slo_samples(
        self, klass: Optional[str] = None
    ) -> Iterator[Tuple[float, float, Optional[str]]]:
        """``(arrival, latency, trace_id)`` triples for :func:`evaluate_slo`."""
        keys = (klass,) if klass is not None else tuple(self.latencies)
        for key in keys:
            yield from zip(
                self.arrivals[key], self.latencies[key], self.trace_ids[key]
            )

    def latency_histogram(
        self, klass: Optional[str] = None, **hist_kwargs
    ) -> LatencyHistogram:
        """Fold recorded latencies into a :class:`LatencyHistogram`.

        Exemplars carry the recorded trace ids, so the histogram's tail
        buckets name concrete requests to pull Perfetto traces for.
        """
        hist = LatencyHistogram(**hist_kwargs)
        for _, latency, trace_id in self.slo_samples(klass):
            hist.record(latency, trace_id)
        return hist


class _VirtualCache:
    """LRU over shard ids with load-completion times (no data).

    ``lookup(shard, at, load)`` returns ``(ready_time, is_hit,
    coalesced)``: a miss schedules a load finishing at ``at + load``; a
    hit whose load is still in flight at ``at`` *coalesces* — the
    caller waits for the in-flight load instead of issuing its own,
    exactly like :meth:`QueryEngine._get_shard`'s single-flight event.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._ready: "OrderedDict[int, float]" = OrderedDict()

    def lookup(self, shard: int, at: float,
               load: float) -> Tuple[float, bool, bool]:
        ready = self._ready.get(shard)
        if ready is not None:
            self._ready.move_to_end(shard)
            if ready > at:
                return ready, True, True
            return at, True, False
        ready = at + load
        self._ready[shard] = ready
        while len(self._ready) > self.capacity:
            self._ready.popitem(last=False)
        return ready, False, False


def replay_virtual(
    requests: Sequence[Request],
    *,
    n: int,
    shard_rows: int,
    policy: Optional[AdmissionPolicy] = None,
    cost: Optional[ServeCostModel] = None,
    cache_shards: int = 4,
    num_servers: int = 2,
    optimized: bool = True,
    batch_window: float = 1e-3,
    batch_max: int = 32,
    shard_nbytes: Optional[Sequence[int]] = None,
    short_circuits: Optional[Sequence[int]] = None,
    telemetry: Optional[TelemetryCollector] = None,
    codec: str = "raw",
    router=None,
    node_budget: int = 32,
    servers_per_node: int = 2,
    node_down: Sequence[Tuple[float, int]] = (),
) -> ReplayResult:
    """Deterministically replay a trace in virtual time.

    The replay runs over a list of virtual serve nodes, each with its
    own servers and LRU shard cache.  Without a ``router`` there is one
    node with ``num_servers`` servers, no per-node budget, and admitted
    point queries micro-batch (``batch_window``/``batch_max``) into
    per-shard gathers.  With a :class:`~repro.serve.router.ShardRouter`
    there are ``router.num_nodes`` nodes of ``servers_per_node`` servers
    each; every request routes by source shard (``failovers`` counts
    requests landing on a non-primary replica), and admission is
    enforced twice, as in a real deployment: the global per-class
    budgets, then the per-node in-flight ``node_budget`` (saturated
    nodes degrade points and shed rows/topk, counted under
    ``node_saturated``).  Routed point queries are served one at a time
    — cross-node micro-batching would need a scatter/gather tier this
    model deliberately leaves out.  ``node_down`` is a sorted-or-not
    sequence of ``(virtual_time, node)`` loss events: at each, the node
    is failed on the router and its cache dropped, so traffic fails
    over to replicas with cold caches — exactly the latency signature
    real node loss has.

    ``optimized=False`` is the *naive per-query path*: no cache, no
    coalescing, no batching — every query loads its shard.  The bench
    gate is precisely ``optimized`` beating this on shard loads and
    mean latency over the same trace and cost model.

    ``shard_nbytes`` gives per-shard encoded sizes (index = shard id,
    e.g. from :meth:`DistStore.shard_nbytes`), so compressed codecs pay
    proportionally smaller load costs; default is uniform raw f8.
    ``short_circuits`` lists the *request indices* whose point queries
    the engine would answer from ALT landmark bounds alone
    (``hi - lo <= epsilon``); those admitted queries finish in
    ``approx_cost`` with no shard fetch, mirroring
    :meth:`QueryEngine.dist` (the bounds are pinned on every node, so
    routing costs them nothing).

    With ``telemetry`` attached, every request's lifecycle is emitted
    at **virtual** timestamps under its deterministic trace id —
    request, admit/degrade/shed, cache hit/miss + shard load (with
    ``codec`` and encoded nbytes), coalesce-wait, short-circuit, batch
    gather, failover, node saturation and loss, and the final answer
    (whose ``dur`` is the latency) — so the JSONL log of a seeded trace
    is byte-identical across runs and machines.  Routed replays tag the
    admit, cache, load and answer events with a ``node`` attr.
    """
    if n < 1 or shard_rows < 1:
        raise ServeError("replay needs n >= 1 and shard_rows >= 1")
    for name, value in (
        ("cache_shards", cache_shards),
        ("num_servers", num_servers),
        ("batch_max", batch_max),
        ("node_budget", node_budget),
        ("servers_per_node", servers_per_node),
    ):
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 1:
            raise ServeError(f"{name} must be an int >= 1, got {value!r}")
    if not isinstance(batch_window, (int, float)) \
            or isinstance(batch_window, bool) \
            or not 0.0 <= float(batch_window) < math.inf:
        raise ServeError(
            f"batch_window must be a finite number >= 0, "
            f"got {batch_window!r}"
        )
    batch_window = float(batch_window)
    if policy is None:
        policy = AdmissionPolicy()
    elif not isinstance(policy, AdmissionPolicy):
        raise ServeError(
            f"policy must be an AdmissionPolicy, got {type(policy).__name__}"
        )
    if cost is None:
        cost = ServeCostModel()
    elif not isinstance(cost, ServeCostModel):
        raise ServeError(
            f"cost must be a ServeCostModel, got {type(cost).__name__}"
        )
    result = ReplayResult()
    num_shards = (n + shard_rows - 1) // shard_rows
    if shard_nbytes is None:
        sizes = [
            min(shard_rows, n - s * shard_rows) * n * 8
            for s in range(num_shards)
        ]
    else:
        sizes = [int(b) for b in shard_nbytes]
        if len(sizes) != num_shards:
            raise ServeError(
                f"shard_nbytes has {len(sizes)} entries for "
                f"{num_shards} shards"
            )
    loads = [cost.load_cost(b) for b in sizes]
    sc_indices = frozenset(short_circuits or ())
    service = {"point": cost.point_cost, "row": cost.row_cost,
               "topk": cost.topk_cost}
    if router is None:
        if node_down:
            raise ServeError("node_down events need a router= to fail")
        num_nodes, per_node = 1, num_servers
        node_budget = math.inf
    else:
        from .router import ShardRouter

        if not isinstance(router, ShardRouter):
            raise ServeError(
                f"router must be a ShardRouter, got {type(router).__name__}"
            )
        num_nodes, per_node = router.num_nodes, servers_per_node
    batching = optimized and router is None
    servers = [ThreadClockQueue(per_node) for _ in range(num_nodes)]
    caches = [_VirtualCache(cache_shards) for _ in range(num_nodes)]
    losses = sorted((float(t), int(node)) for t, node in node_down)
    next_loss = 0

    def note(tid: str, kind: str, t: float, dur: float = 0.0, *,
             node: Optional[int] = None, **attrs) -> None:
        if telemetry is not None:
            if router is not None and node is not None:
                attrs["node"] = node
            telemetry.emit(tid, kind, t, dur, **attrs)

    # finish times of in-flight requests, per class and per node, boxed
    # in one-element lists so an open batch can hold a slot (inf = still
    # buffered, counting against the budget) and fill it in at flush
    inflight: Dict[str, List[List[float]]] = {
        "point": [], "row": [], "topk": [],
    }
    node_inflight: List[List[List[float]]] = [[] for _ in range(num_nodes)]

    def depth_of(boxes: List[List[float]], now: float) -> int:
        boxes[:] = [box for box in boxes if box[0] > now]
        return len(boxes)

    def fetch(node: int, shard: int, at: float, tid: str) -> float:
        """Time at which the shard's bytes are available on ``node``."""
        if optimized:
            ready, hit, coalesced = caches[node].lookup(shard, at,
                                                        loads[shard])
        else:
            ready, hit, coalesced = at + loads[shard], False, False
        if hit:
            result.counters["cache_hits"] += 1
            note(tid, "cache_hit", at, shard=shard, node=node)
            if coalesced:
                result.counters["coalesced"] += 1
                note(tid, "coalesce_wait", at, ready - at, shard=shard,
                     node=node)
        else:
            result.counters["shard_loads"] += 1
            result.counters["bytes_loaded"] += sizes[shard]
            note(tid, "cache_miss", at, shard=shard, node=node)
            note(tid, "shard_load", at, loads[shard], shard=shard,
                 nbytes=sizes[shard], codec=codec, node=node)
        return ready

    def answer(tid: str, req: Request, finish: float, latency: float,
               status: str = "ok", node: Optional[int] = None) -> None:
        note(tid, "answer", finish, latency, status=status, klass=req.kind,
             node=node)
        result.record(req.kind, latency, arrival=req.arrival, trace_id=tid)

    batch: List[Tuple[Request, str]] = []
    batch_slots: List[List[float]] = []  # the buffered queries' boxes

    def flush_batch() -> None:
        if not batch:
            return
        flush_t = batch[0][0].arrival + batch_window
        if len(batch) >= batch_max:
            flush_t = min(flush_t, batch[-1][0].arrival)
        clock, server = servers[0].pop_earliest()
        current = max(clock, flush_t)
        groups: Dict[int, List[Tuple[Request, str]]] = {}
        for req, tid in batch:
            groups.setdefault(req.u // shard_rows, []).append((req, tid))
        for shard, members in sorted(groups.items()):
            # I/O and gather telemetry attributed to the group's first
            # member — the request that would have triggered the load
            lead_tid = members[0][1]
            current = fetch(0, shard, current, lead_tid)
            gather = cost.gather_cost + cost.point_cost * len(members)
            note(lead_tid, "batch_gather", current, gather,
                 shard=shard, group=len(members))
            current += gather
            result.counters["gathers"] += 1
        servers[0].advance(server, current)
        result.counters["batches"] += 1
        for box, (req, tid) in zip(batch_slots, batch):
            box[0] = current
            answer(tid, req, current, current - req.arrival)
        batch.clear()
        batch_slots.clear()

    for req_index, req in enumerate(requests):
        while next_loss < len(losses) \
                and losses[next_loss][0] <= req.arrival:
            at, lost = losses[next_loss]
            next_loss += 1
            router.fail_node(lost)
            # the node's RAM goes with it: replicas start cold
            caches[lost] = _VirtualCache(cache_shards)
            node_inflight[lost] = []
            result.counters["node_losses"] += 1
            note(make_trace_id(req_index, "loss", lost, next_loss),
                 "node_loss", at, node=lost)
        if batch and (
            req.arrival > batch[0][0].arrival + batch_window
            or len(batch) >= batch_max
        ):
            flush_batch()
        tid = make_trace_id(req_index, req.kind, req.u, req.v)
        note(tid, "request", req.arrival, klass=req.kind, u=req.u,
             v=req.v, k=req.k)
        depth = depth_of(inflight[req.kind], req.arrival)
        saturated = depth >= policy.limit(req.kind)
        if not saturated:
            shard = req.u // shard_rows
            node, failover = (0, False) if router is None \
                else router.route(shard)
            if failover:
                result.counters["failovers"] += 1
                note(tid, "failover", req.arrival, shard=shard, node=node)
            node_depth = depth_of(node_inflight[node], req.arrival)
            if node_depth >= node_budget:
                saturated = True
                result.counters["node_saturated"] += 1
                note(tid, "node_saturated", req.arrival, node=node,
                     depth=node_depth)
        if saturated:
            if req.kind == "point":
                result.counters["degraded"] += 1
                note(tid, "degrade", req.arrival, depth=depth)
                answer(tid, req, req.arrival + cost.approx_cost,
                       cost.approx_cost, status="degraded")
            else:
                result.counters["shed"] += 1
                note(tid, "shed", req.arrival, depth=depth)
            continue
        result.counters["admitted"] += 1
        note(tid, "admit", req.arrival, depth=depth, node=node)
        if req.kind == "point" and optimized and req_index in sc_indices:
            # ALT short-circuit: answered from landmark bounds in O(L),
            # no shard fetch, no server occupancy worth modelling
            result.counters["short_circuits"] += 1
            note(tid, "short_circuit", req.arrival)
            finish = req.arrival + cost.approx_cost
            inflight["point"].append([finish])
            answer(tid, req, finish, cost.approx_cost)
            continue
        if req.kind == "point" and batching:
            box = [float("inf")]
            inflight["point"].append(box)
            batch_slots.append(box)
            batch.append((req, tid))
            continue
        clock, server = servers[node].pop_earliest()
        ready = fetch(node, shard, max(clock, req.arrival), tid)
        finish = ready + service[req.kind]
        servers[node].advance(server, finish)
        inflight[req.kind].append([finish])
        node_inflight[node].append([finish])
        answer(tid, req, finish, finish - req.arrival, node=node)
    flush_batch()
    return result


def replay_threaded(
    requests: Sequence[Request],
    frontend: ServeFrontend,
    *,
    num_threads: int = 4,
) -> "Tuple[ReplayResult, List[object]]":
    """Push the trace through the real front end on a thread pool.

    Arrival pacing is compressed (no sleeps — CI time is precious);
    what this exercises is the genuine lock/coalescing/admission code
    under real concurrency.  Returns the replay result plus the raw
    :class:`~repro.serve.admission.QueryResponse` list in request
    order, so callers can cross-check exact answers against the
    virtual replay's ground truth.

    Arrivals are recorded from the *trace* (virtual time), so SLO
    evaluation over this result windows the same way as over the
    virtual replay — the identical scoring code path the SLO layer
    promises.
    """
    import time
    from concurrent.futures import ThreadPoolExecutor

    if num_threads < 1:
        raise ServeError(f"num_threads must be >= 1, got {num_threads!r}")
    result = ReplayResult()

    def serve(req: Request):
        t0 = time.perf_counter()
        if req.kind == "point":
            resp = frontend.point(req.u, req.v)
        elif req.kind == "row":
            resp = frontend.row(req.u)
        else:
            resp = frontend.topk(req.u, req.k)
        return req, resp, time.perf_counter() - t0

    with ThreadPoolExecutor(max_workers=num_threads) as pool:
        outcomes = list(pool.map(serve, requests))
    responses: List[object] = []
    for req, resp, elapsed in outcomes:
        responses.append(resp)
        if resp.status == "shed":
            result.counters["shed"] += 1
            continue
        if resp.status == "degraded":
            result.counters["degraded"] += 1
        else:
            result.counters["admitted"] += 1
        result.record(req.kind, elapsed, arrival=req.arrival)
    engine = frontend.engine
    stats = engine.stats  # RoutedEngine aggregates across its nodes
    result.counters["shard_loads"] = stats["shard_loads"]
    result.counters["cache_hits"] = stats["hits"]
    result.counters["coalesced"] = stats["coalesced"]
    result.counters["short_circuits"] = stats["short_circuits"]
    result.counters["approx"] = stats["approx"]
    result.counters["bytes_loaded"] = stats["bytes_loaded"]
    if "failovers" in stats:
        result.counters["failovers"] = stats["failovers"]
    return result, responses

"""Per-layer wall-clock breakdown of a traced run.

The traced run installs a :class:`repro.trace.TraceRecorder` (a
``repro.obs`` registry that also records each span's OS thread) and
wraps the codec methods in spans.  Everything else comes from spans the
library already emits (``apsp.ordering``, ``apsp.dijkstra``,
``sweep.source``, ``apsp.shard``, ``serve.store.build``,
``serve.store.load``, ``serve.query.*``, ...) and from spans this
benchmark opens around its calls into the public API.

Self time of a span is its duration minus its same-thread children.
Each thread that drives the workload runs under a root span named
``bench.driver/<k>``, ``k`` being how many drivers run concurrently;
its subtree's self times are weighted ``1/k``, so for every workload

    sum(layer self times) + residual_s == wall_s

where ``residual_s`` is driver time covered by no layer span (loop
glue, thread start-up) plus wall time outside any driver.  Worker
threads of the threads backend are not drivers: while the driver waits
inside ``apsp.dijkstra``, the part of that wait covered by a worker's
``sweep.source`` span counts as ``core.sweep_s`` and the rest as
``parallel.self_s`` (fork, join and scheduling gaps).
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

from repro import obs

DRIVER = "bench.driver"

#: span name -> layer self-time metric
LAYER_OF: Dict[str, str] = {
    "apsp.ordering": "order.busy_s",
    "par_apsp": "core.sweep_s",
    "sweep.source": "core.sweep_s",
    "sweep.block": "core.sweep_s",
    "apsp.dijkstra": "parallel.self_s",  # split against worker spans
    "apsp.shard": "core.shard_solve_s",
    "codecs.encode": "codecs.encode_s",
    "codecs.decode": "codecs.decode_s",
    "store.solve_to_store": "store.write_s",
    "serve.store.build": "store.write_s",
    "serve.store.update": "store.write_s",
    "store.verify": "store.verify_s",
    "serve.store.load": "store.load_self_s",
    "serve.query.point": "engine.point_s",
    "serve.query.bounds": "engine.point_s",
    "serve.query.row": "engine.row_s",
    "serve.query.topk": "engine.topk_s",
    "engine.refresh": "engine.refresh_s",
    "admission.point": "admission.self_s",
    "admission.row": "admission.self_s",
    "admission.topk": "admission.self_s",
    "update.apply": "update.self_s",
    "bench.check": "bench.check_s",
    "bench.idle": "bench.idle_s",  # the update writer waiting for its slot
    "bench.hostspeed": "bench.hostspeed_s",  # reference-kernel samples
}

#: spans whose *total* (not self) time is also reported
TOTAL_OF: Dict[str, str] = {
    "serve.store.load": "store.load_s",
    "update.apply": "update.busy_s",
}

_WORKER_WORK = ("sweep.source", "sweep.block")


def driver(concurrency: int = 1):
    """Root span of one driving thread (``concurrency`` run at once)."""
    return obs.span(f"{DRIVER}/{concurrency}")


class _Node:
    __slots__ = ("rec", "name", "children_s", "root")

    def __init__(self, rec, name, root):
        self.rec = rec
        self.name = name
        self.children_s = 0.0
        self.root = root

    @property
    def end(self) -> float:
        return self.rec.start + self.rec.duration


def _union_within(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered, cursor = 0.0, lo
    for start, end in intervals:  # sorted by start
        if end <= cursor:
            continue
        if start >= hi:
            break
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def breakdown(timeline, wall: float) -> Tuple[Dict[str, float], List[str]]:
    """Layer self times (weighted per driver) plus ``residual_s``.

    ``timeline`` is :attr:`TraceRecorder.timeline`.  Returns the metric
    dict and the sorted names of spans no layer claims (their time
    lands in ``residual_s``; the self-test requires none).
    """
    by_thread: Dict[int, list] = defaultdict(list)
    for rec, ident, _ in timeline:
        by_thread[ident].append(rec)

    out: Dict[str, float] = defaultdict(float)
    unknown = set()
    waits: List[Tuple[float, float, float, float]] = []  # start, end, self, weight
    worker: List[Tuple[float, float]] = []

    def weight_of(root: _Node) -> float:
        return 1.0 / float(root.name.split("/", 1)[1])

    def close(node: _Node) -> None:
        own = node.rec.duration - node.children_s
        root = node.root
        if not root.name.startswith(DRIVER + "/"):
            if node.name in _WORKER_WORK:
                worker.append((node.rec.start, node.end))
            return
        w = weight_of(root)
        if node.name in TOTAL_OF:
            out[TOTAL_OF[node.name]] += w * node.rec.duration
        if node is root:
            return  # driver glue: part of the residual
        if node.name == "apsp.dijkstra":
            waits.append((node.rec.start, node.end, own, w))
        elif node.name in LAYER_OF:
            out[LAYER_OF[node.name]] += w * own
        else:
            unknown.add(node.name)

    for recs in by_thread.values():
        recs.sort(key=lambda r: (r.start, -r.duration))
        stack: List[_Node] = []
        for rec in recs:
            while stack and not (
                rec.path.startswith(stack[-1].rec.path + ".")
                and rec.start + rec.duration <= stack[-1].end + 1e-9
            ):
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent.children_s += rec.duration
                node = _Node(rec, rec.path[len(parent.rec.path) + 1:], parent.root)
            else:
                node = _Node(rec, rec.path, None)
                node.root = node
            stack.append(node)
        while stack:
            close(stack.pop())

    worker.sort()
    for start, end, own, w in waits:
        swept = min(own, _union_within(worker, start, end))
        out["core.sweep_s"] += w * swept
        out["parallel.self_s"] += w * (own - swept)

    covered = sum(v for k, v in out.items() if k in set(LAYER_OF.values()))
    out["residual_s"] = wall - covered
    return dict(out), sorted(unknown)


def _wrap_encode(orig):
    def encode(self, block):
        with obs.span("codecs.encode"):
            result = orig(self, block)
        obs.counter_add("codecs.encode_bytes", len(result[0]))
        return result

    return encode


def _wrap_decode(orig):
    def decode(self, payload, rows, n, params):
        with obs.span("codecs.decode"):
            result = orig(self, payload, rows, n, params)
        obs.counter_add("codecs.decode_calls", 1)
        obs.counter_add("codecs.decode_bytes", len(payload))
        return result

    return decode


@contextlib.contextmanager
def instrument_codecs() -> Iterator[None]:
    """Time every codec ``encode``/``decode`` call while active."""
    from repro.serve.codecs import CODECS

    saved = []
    try:
        for cls in CODECS.values():
            for name, wrap in (("encode", _wrap_encode), ("decode", _wrap_decode)):
                orig = cls.__dict__.get(name)
                if orig is not None:
                    saved.append((cls, name, orig))
                    setattr(cls, name, wrap(orig))
        yield
    finally:
        for cls, name, orig in reversed(saved):
            setattr(cls, name, orig)

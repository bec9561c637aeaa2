"""Admission control: bounded queues, backpressure, graceful degradation.

The front end enforces the ROADMAP's "heavy traffic" stance: a serving
process must never build an unbounded backlog.  Every request belongs
to a **class** (``point``, ``row``, ``topk``); each class has a bounded
in-flight budget.  When a class is saturated:

* ``point`` queries **degrade** — they are answered immediately from
  the pinned landmark rows (certified ALT bounds, no shard I/O): the
  response carries the error bar ``lo <= d(u,v) <= hi``, serves ``hi``
  as the value, and is flagged ``approx=True`` / ``status="degraded"``;
* ``row`` and ``topk`` queries (which are orders of magnitude heavier)
  are **shed** with ``status="shed"`` so the caller can retry — they
  have no cheap approximation.

All outcomes are counted (``serve.admission.{admitted,degraded,shed}``)
so the traffic bench can report the saturation point as data rather
than as a stuck process.

With a :class:`~repro.serve.telemetry.TelemetryCollector` attached, the
front end is also where each request's **trace id** is minted
(:func:`~repro.serve.telemetry.make_trace_id` over a monotone sequence
number): every handler runs inside a
:func:`~repro.serve.telemetry.request_scope`, so the engine's and
store's scope-aware emits land under the right request, and the front
end itself emits the admission verdict and the final answer (with its
certified error bar when degraded).
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional

from ..exceptions import ServeError
from ..obs import metrics as _obs
from .engine import QueryEngine
from .telemetry import (
    RequestContext,
    TelemetryCollector,
    make_trace_id,
    request_scope,
)

__all__ = ["QUERY_CLASSES", "AdmissionPolicy", "QueryResponse",
           "ServeFrontend"]

QUERY_CLASSES = ("point", "row", "topk")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-class in-flight budgets (requests, not bytes)."""

    max_point: int = 64
    max_row: int = 4
    max_topk: int = 8

    def __post_init__(self) -> None:
        for name in ("max_point", "max_row", "max_topk"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ServeError(
                    f"{name} must be an int >= 1, got {value!r}"
                )

    def limit(self, klass: str) -> int:
        return {"point": self.max_point, "row": self.max_row,
                "topk": self.max_topk}[klass]


@dataclass(frozen=True)
class QueryResponse:
    """One answered (or refused) request.

    ``status`` is ``"ok"`` (exact up to the store codec's certified
    error), ``"degraded"`` (ALT landmark bounds, only ever for
    ``point``) or ``"shed"`` (refused under saturation, ``value is
    None``).  ``approx`` is True exactly for degraded responses, so a
    caller can trust ``approx=False`` answers bit-for-bit; degraded
    responses carry the certified error bar ``lo <= d(u,v) <= hi``
    (``value`` is ``hi``, the safe upper bound) instead of a bare flag.
    """

    klass: str
    value: Any
    status: str = "ok"
    approx: bool = field(default=False)
    #: certified lower/upper bounds; set only on degraded responses
    lo: Optional[float] = None
    hi: Optional[float] = None

    def __post_init__(self) -> None:
        if self.status not in ("ok", "degraded", "shed"):
            raise ServeError(f"unknown response status {self.status!r}")


class ServeFrontend:
    """Thread-safe admission wrapper around a :class:`QueryEngine`."""

    def __init__(
        self,
        engine: QueryEngine,
        *,
        policy: Optional[AdmissionPolicy] = None,
        telemetry: Optional[TelemetryCollector] = None,
    ) -> None:
        self.engine = engine
        self.policy = policy or AdmissionPolicy()
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._seq = 0
        self._inflight: Dict[str, int] = {k: 0 for k in QUERY_CLASSES}
        self.counts: Dict[str, int] = {
            "admitted": 0, "degraded": 0, "shed": 0,
        }

    def inflight(self) -> Mapping[str, int]:
        with self._lock:
            return dict(self._inflight)

    @contextlib.contextmanager
    def _request(self, klass: str, u: int, v: int = -1,
                 k: int = -1) -> Iterator[Optional[RequestContext]]:
        """Mint a trace id and open the request scope (no-op if off)."""
        if self.telemetry is None:
            yield None
            return
        with self._lock:
            seq = self._seq
            self._seq += 1
        ctx = RequestContext(
            trace_id=make_trace_id(seq, klass, u, v),
            klass=klass, u=u, v=v, k=k,
        )
        self.telemetry.emit(
            ctx.trace_id, "request", time.perf_counter(),
            klass=klass, u=u, v=v, k=k,
        )
        with request_scope(self.telemetry, ctx):
            yield ctx

    def _note(self, ctx: Optional[RequestContext], kind: str,
              dur: float = 0.0, **attrs: Any) -> None:
        if ctx is not None and self.telemetry is not None:
            self.telemetry.emit(
                ctx.trace_id, kind, time.perf_counter(), dur, **attrs
            )

    def _admit(self, klass: str) -> bool:
        with self._lock:
            if self._inflight[klass] >= self.policy.limit(klass):
                return False
            self._inflight[klass] += 1
            self.counts["admitted"] += 1
        _obs.counter_add("serve.admission.admitted", 1)
        return True

    def _release(self, klass: str) -> None:
        with self._lock:
            self._inflight[klass] -= 1

    def point(self, u: int, v: int) -> QueryResponse:
        with self._request("point", u, v) as ctx:
            t0 = time.perf_counter()
            if not self._admit("point"):
                with self._lock:
                    self.counts["degraded"] += 1
                _obs.counter_add("serve.admission.degraded", 1)
                self._note(ctx, "degrade")
                lo, hi = self.engine.dist_approx(u, v)
                self._note(ctx, "answer", time.perf_counter() - t0,
                           status="degraded", klass="point", lo=lo, hi=hi)
                return QueryResponse(
                    klass="point",
                    value=hi,
                    status="degraded",
                    approx=True,
                    lo=lo,
                    hi=hi,
                )
            self._note(ctx, "admit")
            try:
                value = self.engine.dist(u, v)
                self._note(ctx, "answer", time.perf_counter() - t0,
                           status="ok", klass="point")
                return QueryResponse(klass="point", value=value)
            finally:
                self._release("point")

    def row(self, u: int) -> QueryResponse:
        with self._request("row", u) as ctx:
            t0 = time.perf_counter()
            if not self._admit("row"):
                with self._lock:
                    self.counts["shed"] += 1
                _obs.counter_add("serve.admission.shed", 1)
                self._note(ctx, "shed")
                return QueryResponse(klass="row", value=None, status="shed")
            self._note(ctx, "admit")
            try:
                value = self.engine.dist_from(u)
                self._note(ctx, "answer", time.perf_counter() - t0,
                           status="ok", klass="row")
                return QueryResponse(klass="row", value=value)
            finally:
                self._release("row")

    def topk(self, u: int, k: int) -> QueryResponse:
        with self._request("topk", u, k=k) as ctx:
            t0 = time.perf_counter()
            if not self._admit("topk"):
                with self._lock:
                    self.counts["shed"] += 1
                _obs.counter_add("serve.admission.shed", 1)
                self._note(ctx, "shed")
                return QueryResponse(klass="topk", value=None, status="shed")
            self._note(ctx, "admit")
            try:
                value = self.engine.top_k(u, k)
                self._note(ctx, "answer", time.perf_counter() - t0,
                           status="ok", klass="topk")
                return QueryResponse(klass="topk", value=value)
            finally:
                self._release("topk")

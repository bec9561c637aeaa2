"""Query engine: LRU shard cache, coalescing, gathers, ALT bounds.

The serving hot path never touches the solver — it is pure data
movement over a :class:`~repro.serve.store.DistStore`:

* an **LRU shard cache** keeps the ``cache_shards`` most recently used
  shards in RAM (hits/misses/evictions counted, both locally and as
  ``serve.cache.*`` obs counters);
* **request coalescing** — concurrent queries for the same uncached
  shard elect one loader; the rest wait on its event instead of issuing
  duplicate disk reads (``serve.cache.coalesced``);
* **micro-batching** — :meth:`QueryEngine.dist_batch` groups point
  queries by source shard and answers each group with one vectorized
  gather (``serve.batch.gathers`` per group vs ``serve.batch.queries``
  per query).

The store's pinned landmark rows power an **ALT-style index**
(Goldberg–Harrelson A*-landmarks-triangle-inequality, applied to point
lookups): for symmetric graphs

* ``hi = min_l d(l,u) + d(l,v)`` — triangle-inequality upper bound,
* ``lo = max_l |d(l,u) - d(l,v)|`` — the matching lower bound,

both O(L) with **zero shard I/O**, and both exact-arithmetic over the
raw-f8 landmark rows regardless of the shard codec.
:meth:`dist_bounds` returns the certified pair ``(lo, hi)``;
:meth:`dist_approx` is its counted degraded-mode twin; and when the
engine is built with ``epsilon`` (or the store recommends one),
:meth:`dist` **short-circuits** — answers ``(lo + hi) / 2`` without
touching any shard whenever ``hi - lo <= epsilon``, which is exact when
the gap is zero (e.g. either endpoint is a landmark).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ServeError
from ..obs import metrics as _obs
from ..types import INF
from . import telemetry as _tel
from .store import DistStore

__all__ = ["QueryEngine"]


class QueryEngine:
    """Point / row / top-k queries over a :class:`DistStore`."""

    def __init__(
        self,
        store: DistStore,
        *,
        cache_shards: int = 4,
        verify_loads: bool = True,
        epsilon: Optional[float] = None,
    ) -> None:
        if cache_shards < 1:
            raise ServeError(
                f"cache_shards must be >= 1, got {cache_shards!r}"
            )
        if epsilon is None:
            epsilon = store.epsilon  # the store's recommended gap
        if epsilon is not None and not (
            isinstance(epsilon, (int, float))
            and not isinstance(epsilon, bool)
            and float(epsilon) >= 0
            and float(epsilon) != float("inf")
        ):
            raise ServeError(
                f"epsilon must be a finite number >= 0 or None, "
                f"got {epsilon!r}"
            )
        self.store = store
        self.cache_shards = cache_shards
        self.verify_loads = verify_loads
        self.epsilon = None if epsilon is None else float(epsilon)
        # cache keys are (generation, shard): after a refresh() adopts
        # an updated store, rows of the old and new generation can never
        # collide under one key, so no query ever mixes generations
        self._cache: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self._loading: Dict[Tuple[int, int], threading.Event] = {}
        #: (generation, rows) of the lazily pinned landmark rows
        self._landmarks: "Tuple[int, np.ndarray] | None" = None
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "coalesced": 0,
            "shard_loads": 0,
            "bytes_loaded": 0,
            "batch_queries": 0,
            "batch_gathers": 0,
            "approx": 0,
            "short_circuits": 0,
        }

    # -- cache ----------------------------------------------------------

    def _get_shard(self, store: DistStore, index: int) -> np.ndarray:
        """Cached shard fetch with single-flight coalescing.

        ``store`` is the caller's per-query snapshot of ``self.store``
        (taken once at query entry), so a concurrent :meth:`refresh`
        never switches generations in the middle of a query.
        """
        key = (store.generation, index)
        while True:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self.stats["hits"] += 1
                    _obs.counter_add("serve.cache.hits", 1)
                    _tel.emit("cache_hit", shard=index)
                    return cached
                event = self._loading.get(key)
                if event is None:
                    event = threading.Event()
                    self._loading[key] = event
                    leader = True
                else:
                    leader = False
            if not leader:
                # someone else is already reading this shard from disk;
                # wait for them, then retry the cache (the shard may be
                # evicted again before we wake — hence the loop)
                with self._lock:
                    self.stats["coalesced"] += 1
                _obs.counter_add("serve.cache.coalesced", 1)
                waited = time.perf_counter()
                event.wait()
                _tel.emit("coalesce_wait",
                          time.perf_counter() - waited, shard=index)
                continue
            try:
                arr = store.load_shard(index, verify=self.verify_loads)
            finally:
                # on load failure the waiters must not hang; they will
                # retry, elect a new leader and surface the same error
                with self._lock:
                    self._loading.pop(key, None)
                event.set()
            _tel.emit("cache_miss", shard=index)
            with self._lock:
                self.stats["misses"] += 1
                self.stats["shard_loads"] += 1
                self.stats["bytes_loaded"] += store.shard_nbytes(index)
                _obs.counter_add("serve.cache.misses", 1)
                self._cache[key] = arr
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_shards:
                    self._cache.popitem(last=False)
                    self.stats["evictions"] += 1
                    _obs.counter_add("serve.cache.evictions", 1)
            return arr

    def refresh(self) -> int:
        """Adopt the store's current on-disk generation; returns it.

        Re-reads the manifest (one atomic file) and swaps the store
        object under the lock.  In-flight queries keep their old
        snapshot; later queries see the new generation.  Cached shards
        of older generations are dropped so the LRU capacity serves
        live traffic.  Emits a ``store_swap`` telemetry event when the
        generation actually moved.
        """
        new_store = DistStore.open(self.store.path)
        with self._lock:
            old_gen = self.store.generation
            self.store = new_store
            self._landmarks = None
            for key in [
                k for k in self._cache if k[0] != new_store.generation
            ]:
                del self._cache[key]
        if new_store.generation != old_gen:
            _obs.counter_add("serve.engine.store_swaps", 1)
            _tel.emit("store_swap", generation=new_store.generation,
                      previous=old_gen)
        return new_store.generation

    # -- queries --------------------------------------------------------

    def _check_vertex(self, vertex: int, name: str) -> None:
        if not isinstance(vertex, (int, np.integer)) \
                or isinstance(vertex, bool):
            raise ServeError(f"{name} must be an int, got {vertex!r}")
        if not 0 <= vertex < self.store.n:
            raise ServeError(
                f"{name}={vertex} out of range for store of n={self.store.n}"
            )

    def dist(self, u: int, v: int) -> float:
        """``d(u, v)`` (``inf`` if unreachable).

        Exact up to the store codec's certified ``max_abs_error``.
        With ``epsilon`` set, first consults the ALT bounds: when
        ``hi - lo <= epsilon`` the midpoint is returned with **no shard
        load** (error ≤ ``epsilon / 2``; exact when the gap is zero).
        """
        self._check_vertex(u, "u")
        self._check_vertex(v, "v")
        store = self.store  # one generation snapshot for the whole query
        with _obs.span("serve.query.point"):
            if self.epsilon is not None and len(store.landmark_ids) > 0:
                lo, hi = self._bounds(u, v, store=store)
                # lo == hi covers the both-inf case, where hi - lo is nan
                if lo == hi or hi - lo <= self.epsilon:
                    with self._lock:
                        self.stats["short_circuits"] += 1
                    _obs.counter_add("serve.query.short_circuits", 1)
                    _tel.emit("short_circuit", lo=lo, hi=hi,
                              epsilon=self.epsilon)
                    return (lo + hi) / 2.0
            index = store.shard_of(u)
            start, _ = store.shard_span(index)
            return float(self._get_shard(store, index)[u - start, v])

    def dist_from(self, u: int) -> np.ndarray:
        """Exact distance row ``d(u, ·)`` as a private copy."""
        self._check_vertex(u, "u")
        store = self.store
        with _obs.span("serve.query.row"):
            index = store.shard_of(u)
            start, _ = store.shard_span(index)
            return self._get_shard(store, index)[u - start].copy()

    def top_k(self, u: int, k: int) -> List[Tuple[int, float]]:
        """The ``k`` nearest reachable vertices to ``u`` (excluding ``u``).

        Returns ``(vertex, distance)`` pairs sorted by distance, ties
        broken by vertex id; fewer than ``k`` if the component is small.
        Always answers from the full decoded row — never short-circuits
        — but note that under a lossy codec (``u16q``) distances within
        ``2 · max_abs_error`` of each other can legitimately swap order.
        """
        self._check_vertex(u, "u")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ServeError(f"k must be an int >= 1, got {k!r}")
        store = self.store
        with _obs.span("serve.query.topk"):
            index = store.shard_of(u)
            start, _ = store.shard_span(index)
            row = self._get_shard(store, index)[u - start]
            reachable = np.flatnonzero((row < INF) & (np.arange(len(row)) != u))
            vals = row[reachable]
            if len(reachable) > k:
                # keep EVERY candidate at the k-th distance, not an
                # arbitrary argpartition pick, so a tie group straddling
                # the boundary resolves by vertex id in the lexsort
                kth = np.partition(vals, k - 1)[k - 1]
                keep = vals <= kth
                reachable, vals = reachable[keep], vals[keep]
            order = np.lexsort((reachable, vals))[:k]
            return [(int(reachable[i]), float(vals[i])) for i in order]

    def dist_batch(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Answer many point queries with one gather per source shard.

        Deliberately never short-circuits: a batch already amortizes its
        shard loads across the group, so the per-query ALT check would
        cost more than it saves.
        """
        for u, v in pairs:
            self._check_vertex(u, "u")
            self._check_vertex(v, "v")
        out = np.empty(len(pairs), dtype=np.float64)
        if not pairs:
            return out
        store = self.store  # one snapshot: the whole batch answers from
        with _obs.span("serve.query.batch"):  # a single generation
            us = np.fromiter((p[0] for p in pairs), dtype=np.int64,
                             count=len(pairs))
            vs = np.fromiter((p[1] for p in pairs), dtype=np.int64,
                             count=len(pairs))
            shard_ids = us // store.shard_rows
            self.stats["batch_queries"] += len(pairs)
            _obs.counter_add("serve.batch.queries", len(pairs))
            for index in np.unique(shard_ids):
                mask = shard_ids == index
                start, _ = store.shard_span(int(index))
                arr = self._get_shard(store, int(index))
                out[mask] = arr[us[mask] - start, vs[mask]]
                self.stats["batch_gathers"] += 1
                _obs.counter_add("serve.batch.gathers", 1)
                _tel.emit("batch_gather", shard=int(index),
                          group=int(np.count_nonzero(mask)))
        return out

    # -- ALT bounds / degraded mode -------------------------------------

    @property
    def num_landmarks(self) -> int:
        return len(self.store.landmark_ids)

    def _landmark_rows(self, store: DistStore) -> np.ndarray:
        """Lazily load the pinned landmark rows of one generation."""
        cached = self._landmarks
        if cached is not None and cached[0] == store.generation:
            return cached[1]
        with self._lock:
            cached = self._landmarks
            if cached is not None and cached[0] == store.generation:
                return cached[1]
            rows = store.landmark_rows(verify=self.verify_loads)
            self._landmarks = (store.generation, rows)
        return rows

    def _bounds(
        self, u: int, v: int, *, store: "DistStore | None" = None
    ) -> Tuple[float, float]:
        """Uncounted ``(lo, hi)`` — shared by dist() and dist_approx()."""
        rows = self._landmark_rows(store if store is not None else self.store)
        du, dv = rows[:, u], rows[:, v]
        # both endpoints unreachable from a landmark ⇒ inf - inf = nan;
        # that landmark certifies nothing, so it contributes lo = 0
        with np.errstate(invalid="ignore"):
            hi = float(np.min(du + dv))
            diff = np.abs(du - dv)
        lo = float(np.max(np.where(np.isnan(diff), 0.0, diff)))
        return lo, hi

    def dist_bounds(self, u: int, v: int) -> Tuple[float, float]:
        """Certified ALT bounds ``lo <= d(u, v) <= hi`` — no shard I/O.

        Over the store's pinned landmark rows (always raw f8):
        ``hi = min_l d(l,u) + d(l,v)`` and ``lo = max_l |d(l,u) -
        d(l,v)|``, both triangle-inequality consequences for symmetric
        (undirected) graphs.  The gap is exactly zero whenever ``u`` or
        ``v`` *is* a landmark (``d(l,l) = 0`` makes both bounds collapse
        to the same float), and ``lo == hi == inf`` certifies
        unreachability.  Cost is O(num_landmarks); never loads a shard.
        """
        self._check_vertex(u, "u")
        self._check_vertex(v, "v")
        store = self.store
        if len(store.landmark_ids) == 0:
            raise ServeError(
                "store has no pinned landmarks; approximate answers "
                "are unavailable (build with num_landmarks > 0)"
            )
        with _obs.span("serve.query.bounds"):
            return self._bounds(u, v, store=store)

    def dist_approx(self, u: int, v: int) -> Tuple[float, float]:
        """Degraded-mode answer: the counted form of :meth:`dist_bounds`.

        Returns the certified ``(lo, hi)`` error bar — the admission
        layer serves ``hi`` as the value under saturation and attaches
        both bounds to the response instead of a bare approx flag.
        """
        bounds = self.dist_bounds(u, v)
        with self._lock:
            self.stats["approx"] += 1
        _obs.counter_add("serve.query.approx", 1)
        return bounds

    # -- introspection --------------------------------------------------

    def hit_rate(self) -> float:
        """Cache hit rate over all shard fetches so far (1.0 if none)."""
        total = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / total if total else 1.0

    def cached_shards(self) -> List[int]:
        """Resident shard indices (of the currently adopted generation)."""
        with self._lock:
            return [index for _, index in self._cache]

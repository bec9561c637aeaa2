"""Consistent-hash shard routing across virtual serve nodes.

One machine stops being enough twice: the distance matrix outgrows one
disk, and hot Zipf traffic outgrows one machine's I/O budget.  This
module is the routing tier that fixes both while keeping every answer
bitwise-identical to the single-node :class:`~repro.serve.engine.QueryEngine`:

* :class:`ShardRouter` — a classic consistent-hash ring (Karger et al.):
  each node owns ``vnodes`` pseudo-random points on a 64-bit ring, and a
  shard's **preference list** is the first ``replication`` distinct live
  nodes clockwise from the shard's own hash.  Adding or failing one node
  moves only ~1/N of the shards; replicas give failover targets.
* **Failover** — :meth:`ShardRouter.route` walks the preference list
  past failed nodes; if every replica is down it deterministically falls
  back to any live node (the store is shared, so correctness is never at
  stake — only placement/cache locality).
* **Rebalance** — :meth:`ShardRouter.rebalance` relocates up to
  ``max_moves`` of the hottest shards from overloaded nodes onto the
  least-loaded ones via explicit per-shard override pins.  Bounded,
  deterministic, and purely a placement change: answers stay exact.
* :class:`RoutedEngine` — the multi-node face of ``QueryEngine``: one
  engine (cache + stats) per virtual node, each query routed by its
  source shard through the ring, per-node in-flight budgets enforced
  with semaphores.  Drop-in everywhere a ``QueryEngine`` is accepted
  (``ServeFrontend``, ``replay_threaded``).

Hash choice: ``blake2b(digest_size=8)`` — stable across processes and
platforms (unlike ``hash()``), cheap, and already in hashlib.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ServeError
from .engine import QueryEngine
from .store import DistStore

__all__ = ["ShardRouter", "RoutedEngine"]


def _ring_hash(key: str) -> int:
    """Stable 64-bit point on the ring for a string key."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRouter:
    """Places shards on ``num_nodes`` virtual nodes via consistent hashing.

    ``replication`` copies of each shard live on the first distinct
    nodes clockwise from the shard's ring point; ``vnodes`` virtual
    points per node smooth the load distribution; ``hash_seed`` yields
    independent ring layouts for experiments.  Nodes can be failed and
    restored at runtime, and a bounded :meth:`rebalance` pins hot shards
    onto cold nodes without touching the ring itself.
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        replication: int = 1,
        vnodes: int = 64,
        hash_seed: int = 0,
    ) -> None:
        if not isinstance(num_nodes, int) or isinstance(num_nodes, bool) \
                or num_nodes < 1:
            raise ServeError(
                f"num_nodes must be an int >= 1, got {num_nodes!r}"
            )
        if not isinstance(replication, int) or isinstance(replication, bool) \
                or replication < 1:
            raise ServeError(
                f"replication must be an int >= 1, got {replication!r}"
            )
        if replication > num_nodes:
            raise ServeError(
                f"replication {replication} exceeds num_nodes {num_nodes}"
            )
        if not isinstance(vnodes, int) or isinstance(vnodes, bool) \
                or vnodes < 1:
            raise ServeError(f"vnodes must be an int >= 1, got {vnodes!r}")
        if not isinstance(hash_seed, int) or isinstance(hash_seed, bool) \
                or hash_seed < 0:
            raise ServeError(
                f"hash_seed must be an int >= 0, got {hash_seed!r}"
            )
        self.num_nodes = num_nodes
        self.replication = replication
        self.vnodes = vnodes
        self.hash_seed = hash_seed
        points: List[Tuple[int, int]] = []
        for node in range(num_nodes):
            for v in range(vnodes):
                points.append(
                    (_ring_hash(f"{hash_seed}:node{node}:vp{v}"), node)
                )
        points.sort()
        self._ring_keys = [p[0] for p in points]
        self._ring_nodes = [p[1] for p in points]
        self._down: set = set()
        #: rebalance pins: shard -> full preference tuple override
        self._overrides: Dict[int, Tuple[int, ...]] = {}

    # -- placement ------------------------------------------------------

    def preference(self, shard: int) -> Tuple[int, ...]:
        """The shard's replica set: first ``replication`` distinct nodes
        clockwise from its ring point (ignores node health; pins from a
        :meth:`rebalance` take precedence)."""
        pinned = self._overrides.get(shard)
        if pinned is not None:
            return pinned
        start = bisect.bisect_left(
            self._ring_keys, _ring_hash(f"{self.hash_seed}:shard{shard}")
        )
        owners: List[int] = []
        n_points = len(self._ring_keys)
        for step in range(n_points):
            node = self._ring_nodes[(start + step) % n_points]
            if node not in owners:
                owners.append(node)
                if len(owners) == self.replication:
                    break
        return tuple(owners)

    def route(self, shard: int) -> Tuple[int, bool]:
        """``(node, failover)`` for a shard: the first **live** owner in
        its preference list; ``failover=True`` when that is not the
        primary.  With every replica down, falls back deterministically
        to the live node owning the next clockwise ring point."""
        owners = self.preference(shard)
        for i, node in enumerate(owners):
            if node not in self._down:
                return node, i != 0
        live = sorted(set(range(self.num_nodes)) - self._down)
        if not live:
            raise ServeError("all serve nodes are down")
        # deterministic spill: walk the ring past the owners
        start = bisect.bisect_left(
            self._ring_keys, _ring_hash(f"{self.hash_seed}:shard{shard}")
        )
        n_points = len(self._ring_keys)
        for step in range(n_points):
            node = self._ring_nodes[(start + step) % n_points]
            if node not in self._down:
                return node, True
        return live[0], True  # unreachable: some live node has vnodes

    def placement(self, num_shards: int) -> Dict[int, List[int]]:
        """``node -> sorted primary shards`` for ``num_shards`` shards
        (health-aware, i.e. after failover)."""
        out: Dict[int, List[int]] = {n: [] for n in range(self.num_nodes)}
        for shard in range(num_shards):
            node, _ = self.route(shard)
            out[node].append(shard)
        return out

    # -- health ---------------------------------------------------------

    def fail_node(self, node: int) -> None:
        """Mark a node down; its shards fail over to the next replicas."""
        self._check_node(node)
        if len(self._down) + 1 >= self.num_nodes and \
                node not in self._down:
            if self.num_nodes - len(self._down) == 1:
                raise ServeError(
                    f"cannot fail node {node}: it is the last live node"
                )
        self._down.add(node)

    def restore_node(self, node: int) -> None:
        self._check_node(node)
        self._down.discard(node)

    def live_nodes(self) -> List[int]:
        return sorted(set(range(self.num_nodes)) - self._down)

    def _check_node(self, node: int) -> None:
        if not isinstance(node, int) or isinstance(node, bool) \
                or not 0 <= node < self.num_nodes:
            raise ServeError(
                f"node must be an int in [0, {self.num_nodes}), got {node!r}"
            )

    # -- rebalance ------------------------------------------------------

    def rebalance(
        self,
        shard_loads: Mapping[int, float],
        *,
        max_moves: int = 4,
    ) -> List[Tuple[int, int, int]]:
        """Move up to ``max_moves`` hot shards to cold nodes; returns the
        ``(shard, from_node, to_node)`` moves actually made.

        Greedy and bounded: each step takes the hottest shard on the
        currently most-loaded live node and pins it (and its replica
        tail) onto the least-loaded live node, but only while that
        strictly narrows the max−min load spread.  Placement-only —
        every node serves from the same store, so answers are unchanged.
        """
        if not isinstance(max_moves, int) or isinstance(max_moves, bool) \
                or max_moves < 0:
            raise ServeError(
                f"max_moves must be an int >= 0, got {max_moves!r}"
            )
        live = self.live_nodes()
        if len(live) < 2:
            return []
        node_load: Dict[int, float] = {n: 0.0 for n in live}
        shard_node: Dict[int, int] = {}
        for shard, load in shard_loads.items():
            node, _ = self.route(int(shard))
            node_load[node] += float(load)
            shard_node[int(shard)] = node
        moves: List[Tuple[int, int, int]] = []
        for _ in range(max_moves):
            # ties broken by node id so the plan is deterministic
            hot = max(node_load, key=lambda n: (node_load[n], -n))
            cold = min(node_load, key=lambda n: (node_load[n], n))
            if hot == cold:
                break
            candidates = [
                (shard_loads[s], s) for s, n in shard_node.items()
                if n == hot and float(shard_loads[s]) > 0
            ]
            if not candidates:
                break
            load, shard = max(candidates, key=lambda t: (t[0], -t[1]))
            load = float(load)
            spread = node_load[hot] - node_load[cold]
            if load >= spread:  # moving it would not strictly help
                break
            old = self.preference(shard)
            tail = [n for n in old if n != cold][: self.replication - 1]
            self._overrides[shard] = (cold, *tail)
            shard_node[shard] = cold
            node_load[hot] -= load
            node_load[cold] += load
            moves.append((shard, hot, cold))
        return moves

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_nodes": self.num_nodes,
            "replication": self.replication,
            "vnodes": self.vnodes,
            "hash_seed": self.hash_seed,
            "down": sorted(self._down),
            "overrides": {
                str(s): list(p) for s, p in sorted(self._overrides.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardRouter":
        router = cls(
            int(data["num_nodes"]),
            replication=int(data.get("replication", 1)),
            vnodes=int(data.get("vnodes", 64)),
            hash_seed=int(data.get("hash_seed", 0)),
        )
        for node in data.get("down", []):
            router._down.add(int(node))
        for shard, pref in data.get("overrides", {}).items():
            router._overrides[int(shard)] = tuple(int(n) for n in pref)
        return router

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardRouter(num_nodes={self.num_nodes}, "
            f"replication={self.replication}, vnodes={self.vnodes}, "
            f"down={sorted(self._down)}, pins={len(self._overrides)})"
        )


class RoutedEngine:
    """A :class:`QueryEngine` facade spanning N virtual serve nodes.

    Each node gets its own ``QueryEngine`` (private LRU cache and
    stats) over the shared :class:`DistStore`; every query routes by
    its source shard through the :class:`ShardRouter`, counted against
    that node's in-flight budget.  Because all nodes decode the same
    store, answers are bitwise-identical to a single engine — the ring
    only decides *which cache warms up* and *whose budget pays*.

    Implements the full ``QueryEngine`` query surface (``dist``,
    ``dist_from``, ``top_k``, ``dist_batch``, ``dist_bounds``,
    ``dist_approx``, ``refresh``, ``stats``/``hit_rate``), so
    :class:`~repro.serve.admission.ServeFrontend` and
    :func:`~repro.serve.replay.replay_threaded` accept one unchanged.
    """

    def __init__(
        self,
        store: DistStore,
        router: ShardRouter,
        *,
        cache_shards: int = 4,
        verify_loads: bool = True,
        epsilon: Optional[float] = None,
        node_budget: int = 32,
    ) -> None:
        if not isinstance(router, ShardRouter):
            raise ServeError(
                f"router must be a ShardRouter, got {type(router).__name__}"
            )
        if not isinstance(node_budget, int) or isinstance(node_budget, bool) \
                or node_budget < 1:
            raise ServeError(
                f"node_budget must be an int >= 1, got {node_budget!r}"
            )
        self.store = store
        self.router = router
        self.node_budget = node_budget
        self.engines: List[QueryEngine] = [
            QueryEngine(
                store,
                cache_shards=cache_shards,
                verify_loads=verify_loads,
                epsilon=epsilon,
            )
            for _ in range(router.num_nodes)
        ]
        self._budgets = [
            threading.Semaphore(node_budget) for _ in range(router.num_nodes)
        ]
        self._lock = threading.Lock()
        self.routing_stats: Dict[str, int] = {
            "routed": 0,
            "failovers": 0,
            "budget_waits": 0,
        }

    # -- routing core ---------------------------------------------------

    @property
    def epsilon(self) -> Optional[float]:
        return self.engines[0].epsilon

    def node_of(self, u: int) -> int:
        """The live node currently serving vertex ``u``'s shard."""
        node, _ = self.router.route(self.store.shard_of(u))
        return node

    def _engine_for(self, u: int) -> QueryEngine:
        shard = self.store.shard_of(u)
        node, failover = self.router.route(shard)
        with self._lock:
            self.routing_stats["routed"] += 1
            if failover:
                self.routing_stats["failovers"] += 1
        return self.engines[node], node

    def _run(self, u: int, fn_name: str, *args: Any, **kwargs: Any) -> Any:
        engine, node = self._engine_for(u)
        sem = self._budgets[node]
        if not sem.acquire(blocking=False):
            with self._lock:
                self.routing_stats["budget_waits"] += 1
            sem.acquire()
        try:
            return getattr(engine, fn_name)(*args, **kwargs)
        finally:
            sem.release()

    # -- QueryEngine surface --------------------------------------------

    def dist(self, u: int, v: int) -> float:
        return self._run(u, "dist", u, v)

    def dist_from(self, u: int) -> np.ndarray:
        return self._run(u, "dist_from", u)

    def top_k(self, u: int, k: int) -> List[Tuple[int, float]]:
        return self._run(u, "top_k", u, k)

    def dist_batch(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Routed batch: the batch splits by serving node, each sub-batch
        answered by that node's engine (preserving its per-shard
        gathers), results re-assembled in request order."""
        if not pairs:
            return np.empty(0, dtype=np.float64)
        groups: Dict[int, List[int]] = {}
        for i, (u, _) in enumerate(pairs):
            node, failover = self.router.route(self.store.shard_of(u))
            groups.setdefault(node, []).append(i)
            with self._lock:
                self.routing_stats["routed"] += 1
                if failover:
                    self.routing_stats["failovers"] += 1
        out = np.empty(len(pairs), dtype=np.float64)
        for node in sorted(groups):
            idx = groups[node]
            sub = [pairs[i] for i in idx]
            sem = self._budgets[node]
            if not sem.acquire(blocking=False):
                with self._lock:
                    self.routing_stats["budget_waits"] += 1
                sem.acquire()
            try:
                out[idx] = self.engines[node].dist_batch(sub)
            finally:
                sem.release()
        return out

    def dist_bounds(self, u: int, v: int) -> Tuple[float, float]:
        return self._run(u, "dist_bounds", u, v)

    def dist_approx(self, u: int, v: int) -> Tuple[float, float]:
        return self._run(u, "dist_approx", u, v)

    def refresh(self) -> int:
        """Adopt the store's current generation on every node."""
        generation = 0
        for engine in self.engines:
            generation = engine.refresh()
        self.store = self.engines[0].store
        return generation

    # -- health / introspection -----------------------------------------

    def fail_node(self, node: int) -> None:
        """Fail a node and drop its now-cold cache (it would be stale
        load accounting once traffic fails over)."""
        self.router.fail_node(node)

    def restore_node(self, node: int) -> None:
        self.router.restore_node(node)

    @property
    def stats(self) -> Dict[str, int]:
        """Aggregated engine stats across nodes, plus routing counters."""
        totals: Dict[str, int] = {}
        for engine in self.engines:
            for key, value in engine.stats.items():
                totals[key] = totals.get(key, 0) + value
        totals.update(self.routing_stats)
        return totals

    def hit_rate(self) -> float:
        totals = self.stats
        fetched = totals["hits"] + totals["misses"]
        return totals["hits"] / fetched if fetched else 1.0

    def node_stats(self) -> List[Dict[str, int]]:
        return [dict(engine.stats) for engine in self.engines]

"""Incremental APSP edge updates with copy-on-write serving.

Production graphs mutate constantly, but a :class:`DistStore` is built
frozen — any edge change used to mean a full O(n²) rebuild.  This
module applies a *batch* of edge insertions / deletions / reweights to
a live store, re-solving only the distance shards the batch can
actually affect:

1. **Landmark prescreen** — the pinned raw-f8 landmark rows give
   certified ALT bounds ``lo(s, x) <= d(s, x) <= hi(s, x)`` with zero
   shard I/O.  A source row ``s`` is *provably clean* when, for every
   inserted / decreased edge ``(u, v, w_new)``, relaxing the new arc
   cannot improve anything (``lo(s,u) + w_new >= hi(s,v)`` and the
   mirror), and for every deleted / increased edge ``(u, v, w_old)``
   the old arc was on no shortest path (``lo(s,u) + w_old > hi(s,v)``
   strictly, and the mirror).  Shards whose every row passes are
   certified clean without touching the solver.
2. **Exact endpoint refinement** — a row ``s`` changes iff ``d(s, e)``
   changes for some touched endpoint ``e`` (undirected graphs), so one
   Dijkstra per endpoint on the old and new graph pins down the exact
   dirty-row set.  The exact set must be a subset of the prescreen
   candidates; a violation raises rather than shipping a wrong store.
3. **Copy-on-write re-solve** — dirty shards are re-solved on the new
   graph through :func:`~repro.core.runner.solve_apsp_rows` and the
   same codec-encode + checksum pipeline as a fresh build, written to
   *new* generation-suffixed files beside the old ones, verified on
   disk, and only then does one atomic manifest swap (a rename)
   publish the new **generation**.  Readers holding the old manifest
   keep resolving old file names; a
   :meth:`~repro.serve.engine.QueryEngine.refresh` adopts the new
   generation without ever mixing rows from two generations.

Landmark rows (and hence the ALT index) are rebuilt whenever the
top-degree landmark set changes or any landmark's own shard is dirty,
so degraded answers stay certified after the swap.

The headline invariant — gated by the ``update-smoke`` bench and a
hypothesis property test — is **byte-identity**: after
``apply_edge_updates``, every shard payload and the landmark file are
bitwise identical to a from-scratch :func:`~repro.serve.store.
solve_to_store` of the mutated graph, at a measured cost far below the
rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..exceptions import ServeError, StoreCorruptionError, StoreError
from ..obs import metrics as _obs
from . import telemetry as _tel
from .store import (
    DistStore,
    _check_graph_matches_store,
    _graph_entry,
    _landmark_vertices,
    _max_abs_error,
    _publish_manifest,
    _store_codec,
    _take_landmark_rows,
    _write_landmarks,
    _write_shard,
)

__all__ = [
    "EdgeUpdate",
    "UpdateResult",
    "apply_edge_updates",
    "apply_updates_to_graph",
    "parse_edge_updates",
]


def _update_shard_file(index: int, generation: int) -> str:
    return f"shard_{index:05d}.g{generation:04d}.bin"


def _update_landmark_file(generation: int) -> str:
    return f"landmarks.g{generation:04d}.bin"


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge mutation: set ``(u, v)`` to ``weight``, or delete it.

    ``weight=None`` deletes the edge (which must exist); a finite
    positive weight inserts the edge or reweights it if present.
    Undirected, so ``(u, v)`` and ``(v, u)`` name the same edge.
    """

    u: int
    v: int
    weight: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("u", "v"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(
                value, bool
            ) or int(value) < 0:
                raise StoreError(
                    f"edge update {name} must be an int >= 0, "
                    f"got {value!r}"
                )
            object.__setattr__(self, name, int(value))
        if self.u == self.v:
            raise StoreError(
                f"edge update ({self.u}, {self.v}) is a self loop"
            )
        w = self.weight
        if w is not None:
            if not isinstance(w, (int, float)) or isinstance(w, bool) \
                    or not 0.0 < float(w) < float("inf"):
                raise StoreError(
                    f"edge update weight must be a finite number > 0 or "
                    f"None (delete), got {w!r}"
                )
            object.__setattr__(self, "weight", float(w))

    @property
    def key(self) -> Tuple[int, int]:
        """Canonical undirected edge key ``(min, max)``."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)

    def to_dict(self) -> Dict[str, Any]:
        return {"u": self.u, "v": self.v, "weight": self.weight}


def parse_edge_updates(text: str) -> List[EdgeUpdate]:
    """Parse the compact DSL ``"set=u,v,w;del=u,v;..."``.

    ``set`` inserts or reweights an edge, ``del`` removes one; items
    are ``;``-separated.  Mirrors the fault/corruption DSLs so the CLI
    can take ``repro-apsp update --updates "set=3,9,0.25;del=1,4"``.
    """
    updates: List[EdgeUpdate] = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        op, sep, args = item.partition("=")
        op = op.strip()
        if not sep or op not in ("set", "del"):
            raise StoreError(
                f"bad edge update {item!r}; expected set=u,v,w or del=u,v"
            )
        parts = [p.strip() for p in args.split(",")]
        try:
            if op == "set":
                if len(parts) != 3:
                    raise ValueError
                updates.append(
                    EdgeUpdate(int(parts[0]), int(parts[1]), float(parts[2]))
                )
            else:
                if len(parts) != 2:
                    raise ValueError
                updates.append(EdgeUpdate(int(parts[0]), int(parts[1]), None))
        except ValueError:
            raise StoreError(
                f"bad edge update {item!r}; expected set=u,v,w or del=u,v"
            ) from None
    return updates


def apply_updates_to_graph(graph, updates: Iterable[EdgeUpdate]):
    """The mutated :class:`~repro.graphs.CSRGraph` a batch describes.

    Pure function of (graph, batch): deleting an absent edge or
    repeating an edge within one batch raises — a batch must be
    unambiguous about the graph it produces.
    """
    return _mutate(graph, updates)[0]


def _mutate(graph, updates: Iterable[EdgeUpdate]):
    """``(mutated graph, each update's old weight or None)``.

    One ``searchsorted`` over the sorted ``u * n + v`` keys of the
    ``u < v`` arcs finds every updated edge; deletes drop out by mask,
    reweights are written in place, inserts are appended.  Of parallel
    arcs (a hand-built CSR) the last one's weight counts.
    """
    from ..graphs.build import from_arc_arrays

    if graph.directed:
        raise StoreError(
            "edge updates require an undirected graph (the landmark "
            "certificates and endpoint refinement rely on d(u,v) = "
            "d(v,u))"
        )
    updates = list(updates)
    n = graph.num_vertices
    seen = set()
    for upd in updates:
        if not isinstance(upd, EdgeUpdate):
            raise StoreError(
                f"updates must be EdgeUpdate, got {type(upd).__name__}"
            )
        if upd.u >= n or upd.v >= n:
            raise StoreError(
                f"edge update ({upd.u}, {upd.v}) out of range for "
                f"graph of n={n}"
            )
        if upd.key in seen:
            raise StoreError(
                f"edge ({upd.key[0]}, {upd.key[1]}) appears twice in "
                "one update batch"
            )
        seen.add(upd.key)

    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    upper = src < graph.indices
    keys = src[upper] * n + graph.indices[upper]
    weights = graph.weights[upper]  # a copy: the graph stays frozen
    if keys.size and not np.all(keys[1:] > keys[:-1]):
        # unsorted rows or parallel arcs: keep each key's last arc
        order = np.argsort(keys, kind="stable")
        keys, weights = keys[order], weights[order]
        last = np.append(keys[1:] != keys[:-1], True)
        keys, weights = keys[last], weights[last]

    upd_keys = np.array([upd.key[0] * n + upd.key[1] for upd in updates],
                        dtype=np.int64)
    new_w = np.array(
        [np.nan if upd.weight is None else upd.weight for upd in updates],
        dtype=np.float64,
    )
    pos = np.searchsorted(keys, upd_keys)
    found = pos < keys.size
    found[found] = keys[pos[found]] == upd_keys[found]
    delete = np.isnan(new_w)
    if np.any(delete & ~found):
        u, v = updates[int(np.flatnonzero(delete & ~found)[0])].key
        raise StoreError(f"cannot delete absent edge ({u}, {v})")
    old = [float(weights[p]) if hit else None
           for p, hit in zip(pos.tolist(), found.tolist())]

    weights[pos[found & ~delete]] = new_w[found & ~delete]
    keep = np.ones(keys.size, dtype=bool)
    keep[pos[delete]] = False
    insert = ~found
    keys = np.concatenate([keys[keep], upd_keys[insert]])
    weights = np.concatenate([weights[keep], new_w[insert]])
    new_graph = from_arc_arrays(
        keys // n, keys % n, weights, num_vertices=n, directed=False,
        name=graph.name,
    )
    return new_graph, old


@dataclass(frozen=True)
class UpdateResult:
    """What one :func:`apply_edge_updates` call did, and what it cost.

    ``cost_rows`` is the deterministic row-unit cost of the update —
    dirty rows re-solved, plus landmark rows re-solved outside dirty
    shards, plus two SSSP runs per touched endpoint (old + new graph),
    each counted as one row.  ``rebuild_rows`` is what a from-scratch
    build pays (``n``); their ratio is the headline the update-smoke
    bench gates below 0.5.
    """

    generation: int
    num_updates: int
    endpoints: Tuple[int, ...]
    candidate_shards: Tuple[int, ...]
    dirty_shards: Tuple[int, ...]
    certified_clean_shards: int
    landmarks_rebuilt: bool
    rows_resolved: int
    landmark_rows_resolved: int
    rebuild_rows: int
    pruned_files: Tuple[str, ...] = ()
    store: Optional[DistStore] = field(
        default=None, repr=False, compare=False
    )

    @property
    def cost_rows(self) -> int:
        return (
            self.rows_resolved
            + self.landmark_rows_resolved
            + 2 * len(self.endpoints)
        )

    @property
    def cost_ratio(self) -> float:
        return self.cost_rows / self.rebuild_rows if self.rebuild_rows else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "generation": self.generation,
            "num_updates": self.num_updates,
            "endpoints": list(self.endpoints),
            "candidate_shards": list(self.candidate_shards),
            "dirty_shards": list(self.dirty_shards),
            "certified_clean_shards": self.certified_clean_shards,
            "landmarks_rebuilt": self.landmarks_rebuilt,
            "rows_resolved": self.rows_resolved,
            "landmark_rows_resolved": self.landmark_rows_resolved,
            "cost_rows": self.cost_rows,
            "rebuild_rows": self.rebuild_rows,
            "cost_ratio": self.cost_ratio,
            "pruned_files": list(self.pruned_files),
        }


# -- dirty-row analysis -------------------------------------------------


def _classify(updates, old_weights):
    """Split a batch into relax-tighter and relax-looser edge lists.

    Returns ``(decreases, increases, endpoints)`` where each entry is
    ``(u, v, w)`` with ``w`` the weight relevant to the certificate:
    the *new* weight for an insert/decrease (can the new arc improve
    anything?), the *old* weight for a delete/increase (was the old arc
    on any shortest path?).  ``old_weights[i]`` is update ``i``'s
    pre-batch weight, ``None`` for an insert.  No-op reweights drop out
    entirely.
    """
    decreases: List[Tuple[int, int, float]] = []
    increases: List[Tuple[int, int, float]] = []
    endpoints: set = set()
    for upd, w_old in zip(updates, old_weights):
        u, v = upd.key
        w_new = upd.weight
        if w_new is None:
            increases.append((u, v, w_old))
        elif w_old is None:
            decreases.append((u, v, w_new))
        elif w_new < w_old:
            decreases.append((u, v, w_new))
        elif w_new > w_old:
            increases.append((u, v, w_old))
        else:
            continue  # no-op reweight: provably nothing to do
        endpoints.update((u, v))
    return decreases, increases, sorted(endpoints)


def _alt_bounds(lm_rows: np.ndarray, x: int) -> Tuple[np.ndarray, np.ndarray]:
    """Certified ``(lo, hi)`` arrays over every source row, for one x.

    ``lo[s] <= d(s, x) <= hi[s]`` from the pinned landmark rows — the
    vectorised form of :meth:`QueryEngine.dist_bounds`.
    """
    col = lm_rows[:, x][:, None]
    with np.errstate(invalid="ignore"):
        hi = np.min(lm_rows + col, axis=0)
        diff = np.abs(lm_rows - col)
    # both endpoints unreachable from a landmark -> inf - inf = nan;
    # that landmark certifies nothing, so it contributes lo = 0
    lo = np.max(np.where(np.isnan(diff), 0.0, diff), axis=0)
    return lo, hi


#: relative slack applied to every certificate comparison.  The ALT
#: bounds are bounds in *exact* arithmetic, but each is assembled with
#: one float add/sub whose rounding can land an ulp past the true
#: distance — when the edge is exactly tight from a row (equality),
#: that ulp is enough to satisfy the strict inequality and mis-certify
#: a dirty row.  1e-12 is thousands of ulp of headroom over any
#: accumulated path-sum error and costs only a sliver of certification
#: power; shrinking what we certify is a performance loss, never a
#: soundness loss.
_CERT_REL_SLACK = 1e-12


def _cert_slack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row comparison slack; 0 where either side is inf (those
    comparisons are decided by sign, not rounding)."""
    finite = np.isfinite(a) & np.isfinite(b)
    return np.where(finite, _CERT_REL_SLACK * (np.abs(a) + np.abs(b)), 0.0)


def _prescreen_rows(
    lm_rows: np.ndarray, n: int, decreases, increases
) -> np.ndarray:
    """Boolean mask of rows the landmark bounds could NOT prove clean."""
    maybe_dirty = np.zeros(n, dtype=bool)
    bounds: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def at(x: int) -> Tuple[np.ndarray, np.ndarray]:
        if x not in bounds:
            bounds[x] = _alt_bounds(lm_rows, x)
        return bounds[x]

    with np.errstate(invalid="ignore"):
        for u, v, w in decreases:
            lo_u, hi_u = at(u)
            lo_v, hi_v = at(v)
            # new arc improves nothing from s when d(s,u) + w >= d(s,v)
            # (and the mirror); certify with lo + w >= hi, padded so
            # float rounding in the bounds cannot fake the inequality
            a, b = lo_u + w, lo_v + w
            clean = (a >= hi_v + _cert_slack(a, hi_v)) \
                & (b >= hi_u + _cert_slack(b, hi_u))
            maybe_dirty |= ~clean
        for u, v, w in increases:
            lo_u, hi_u = at(u)
            lo_v, hi_v = at(v)
            # old arc was on no shortest path from s when
            # d(s,u) + w > d(s,v) strictly (and the mirror); same
            # rounding pad — a tight edge (exact equality) must never
            # pass the strict test on an ulp of float noise
            a, b = lo_u + w, lo_v + w
            clean = (a > hi_v + _cert_slack(a, hi_v)) \
                & (b > hi_u + _cert_slack(b, hi_u))
            # lo = inf certifies d(s, u) = inf (a landmark reaches
            # exactly one of s, u): any path through the arc visits
            # both endpoints, so a row disconnected from either is
            # untouched — this rescues rows where the strict
            # inequality degenerates to inf > inf
            clean |= np.isinf(lo_u) | np.isinf(lo_v)
            maybe_dirty |= ~clean
    return maybe_dirty


def _exact_dirty_rows(graph_old, graph_new, endpoints) -> np.ndarray:
    """Boolean mask of rows whose distances actually change.

    Row ``s`` changes iff ``d(s, e)`` changes for some touched endpoint
    ``e`` (undirected): any altered shortest path crosses a touched
    endpoint, and conversely.  One compiled-kernel call per graph over
    all endpoints pins this down; the comparison is bitwise because the
    solver's float fixpoint is canonical (min over paths of the
    running-sum float).
    """
    from ..core.dijkstra import dijkstra_rows

    endpoints = list(endpoints)
    d_old = dijkstra_rows(graph_old, endpoints)
    d_new = dijkstra_rows(graph_new, endpoints)
    return np.any(d_old != d_new, axis=0)


def _rows_to_shards(mask: np.ndarray, shard_rows: int, num_shards: int):
    pad = num_shards * shard_rows - mask.size
    if pad:
        mask = np.concatenate([mask, np.zeros(pad, dtype=bool)])
    by_shard = mask.reshape(num_shards, shard_rows).any(axis=1)
    return [int(i) for i in np.flatnonzero(by_shard)]


# -- the update itself --------------------------------------------------


def apply_edge_updates(
    store: DistStore,
    graph,
    updates: Iterable[EdgeUpdate],
    *,
    prescreen: bool = True,
    verify_before: bool = True,
    prune: bool = False,
    pre_swap_hook: Optional[Callable[[DistStore, Dict[str, Any]], None]] = None,
) -> UpdateResult:
    """Apply a batch of edge updates to a live store, copy-on-write.

    ``graph`` must be the graph the store currently serves (checked
    against the CSR digest its manifest records as ``graph.crc32``);
    the mutated graph is derived from the batch.  Only provably
    affected shards are re-solved; new shard files are written
    *beside* the old generation's, verified on disk, and published by
    one atomic manifest swap carrying a bumped ``generation`` — readers
    are never blocked and never see a torn store.  Returns an
    :class:`UpdateResult` whose ``store`` is the freshly opened new generation.

    ``prescreen`` certifies shards clean via the pinned landmark (ALT)
    bounds before the exact endpoint refinement (off, the refinement
    alone is still sound); ``verify_before`` checksums the whole store
    first, since an update must never be layered on top of silent
    corruption; ``prune`` deletes superseded files of older generations
    after the manifest swap (off by default, so live readers keep
    working).  ``pre_swap_hook(old_store, new_manifest)`` runs after
    the new files
    are written but before they are verified and the manifest swapped —
    the injection point for corruption drills across an in-flight
    update (a drill that damages a pending file aborts the update with
    the old generation intact).
    """
    from ..config import SolverConfig

    for name, value in (("prescreen", prescreen),
                        ("verify_before", verify_before), ("prune", prune)):
        if not isinstance(value, bool):
            raise ServeError(f"{name} must be a bool, got {value!r}")
    if graph.num_vertices != store.n:
        raise StoreError(
            f"update graph has {graph.num_vertices} vertices, store was "
            f"built for n={store.n}"
        )
    _check_graph_matches_store(store, graph)
    updates = list(updates)
    new_graph, old_weights = _mutate(graph, updates)  # validates batch

    if verify_before:
        # an update must never be layered on top of silent corruption:
        # a pre-existing bad shard would be copied forward as "clean"
        store.verify()

    cfg = SolverConfig.from_dict(store.manifest["config"]).with_overrides(
        use_flags=False
    )
    n = store.n
    shard_rows = store.shard_rows
    new_gen = store.generation + 1

    decreases, increases, endpoints = _classify(updates, old_weights)

    # -- 1. landmark prescreen (certified clean rows) -------------------
    old_lm_rows = store.landmark_rows() if store.landmark_ids else None
    if prescreen and old_lm_rows is not None and len(old_lm_rows):
        candidate_mask = _prescreen_rows(
            old_lm_rows, n, decreases, increases
        )
    else:
        candidate_mask = np.ones(n, dtype=bool)
    candidate_shards = _rows_to_shards(
        candidate_mask, shard_rows, store.num_shards
    )

    # -- 2. exact endpoint refinement -----------------------------------
    dirty_mask = _exact_dirty_rows(graph, new_graph, endpoints)
    if np.any(dirty_mask & ~candidate_mask):
        leaked = np.flatnonzero(dirty_mask & ~candidate_mask)[:8]
        raise StoreError(
            "internal invariant violated: endpoint refinement found "
            f"changed rows {leaked.tolist()} that the landmark "
            "certificate declared clean; refusing to ship a store that "
            "could be wrong"
        )
    dirty_shards = set(
        _rows_to_shards(dirty_mask, shard_rows, store.num_shards)
    )

    # -- 3. codec bookkeeping -------------------------------------------
    # copy only what the update replaces; the old store's manifest
    # (live readers may hold it) is never mutated
    new_manifest = dict(store.manifest)
    new_manifest["shards"] = list(store.manifest["shards"])
    codec_obj, codec_params = _store_codec(
        store.codec_name, new_graph, cfg.algorithm.degree_kind
    )
    if codec_params != store.manifest.get("codec_params", {}):
        # the codec's byte layout depends on the degree order, so a
        # changed order invalidates every shard's encoding
        dirty_shards = set(range(store.num_shards))
    dirty_shards = sorted(dirty_shards)

    # -- 4. landmark invalidation rule ----------------------------------
    old_ids = list(store.landmark_ids)
    new_ids = _landmark_vertices(
        new_graph, len(old_ids), cfg.algorithm.degree_kind
    )
    dirty_set = set(dirty_shards)
    landmarks_rebuilt = bool(old_ids) and (
        new_ids != old_ids
        or any(vertex // shard_rows in dirty_set for vertex in new_ids)
    )

    # -- 5. copy-on-write re-solve of dirty shards ----------------------
    from ..core.runner import solve_apsp_rows

    # landmark rows to copy out of re-solved shards (none unless rebuilt)
    lm_pos = {v: i for i, v in enumerate(new_ids)} if landmarks_rebuilt else {}
    new_lm_rows = np.empty((len(new_ids), n), dtype=np.float64)
    rows_resolved = 0
    # (shard index or "landmarks", path) of every file written so far
    written: List[Tuple[Any, Path]] = []

    def solve_shard(index: int) -> Tuple[int, np.ndarray]:
        start, rows = store.shard_span(index)
        block = solve_apsp_rows(
            new_graph, np.arange(start, start + rows), **cfg.to_kwargs()
        )
        _obs.counter_add("serve.store.shards_solved", 1)
        return start, block

    try:
        with _obs.span("serve.store.update"):
            for index in dirty_shards:
                start, block = solve_shard(index)
                rows_resolved += block.shape[0]
                _take_landmark_rows(new_lm_rows, lm_pos, start, block)
                fname = _update_shard_file(index, new_gen)
                new_manifest["shards"][index] = _write_shard(
                    store.path, fname, codec_obj, start, block
                )
                written.append((index, store.path / fname))

            # landmark rows living in clean shards: reuse the exact old
            # pinned row when the landmark survived, otherwise re-solve
            # that one shard (counted separately in the cost)
            landmark_rows_resolved = 0
            if landmarks_rebuilt:
                old_pos = {v: i for i, v in enumerate(old_ids)}
                need_shard: Dict[int, List[int]] = {}
                for v in new_ids:
                    shard = v // shard_rows
                    if shard in dirty_set:
                        continue  # captured in the loop above
                    if v in old_pos:
                        new_lm_rows[lm_pos[v]] = old_lm_rows[old_pos[v]]
                    else:
                        need_shard.setdefault(shard, []).append(v)
                for shard, vertices in sorted(need_shard.items()):
                    start, block = solve_shard(shard)
                    landmark_rows_resolved += block.shape[0]
                    _take_landmark_rows(
                        new_lm_rows, {v: lm_pos[v] for v in vertices},
                        start, block,
                    )
                lm_fname = _update_landmark_file(new_gen)
                new_manifest["landmarks"] = _write_landmarks(
                    store.path, lm_fname, new_ids, new_lm_rows
                )
                written.append(("landmarks", store.path / lm_fname))

            new_manifest.update(
                generation=new_gen, codec_params=codec_params,
                max_abs_error=_max_abs_error(new_manifest["shards"]),
                graph=_graph_entry(new_graph),
            )

            if pre_swap_hook is not None:
                pre_swap_hook(store, new_manifest)

            # verify every pending file on disk BEFORE the swap: an
            # in-flight corruption aborts with the old generation intact
            new_store = DistStore(store.path, new_manifest)
            for name, fpath in written:
                try:
                    new_store._read_file(name, count=False)
                except StoreCorruptionError as exc:
                    raise StoreCorruptionError(
                        f"pending update file {fpath.name} was damaged "
                        "before the manifest swap; aborting the update "
                        "(the live generation is untouched)",
                        shards=(fpath.name,),
                    ) from exc

            # -- 6. atomic publish --------------------------------------
            _publish_manifest(store.path, new_manifest)
    except BaseException:
        for _, fpath in written:
            try:
                fpath.unlink()
            except OSError:
                pass
        raise

    pruned: List[str] = []
    if prune:
        old_files, keep = (
            {entry["file"] for entry in [*m["shards"], m["landmarks"]]}
            for m in (store.manifest, new_manifest)
        )
        for name in sorted(old_files - keep):
            try:
                (store.path / name).unlink()
                pruned.append(name)
            except OSError:
                pass

    _obs.counter_add("serve.store.updates", 1)
    _obs.counter_add("serve.store.shards_updated", len(dirty_shards))
    _tel.emit(
        "store_swap",
        generation=new_gen,
        dirty_shards=len(dirty_shards),
        landmarks_rebuilt=landmarks_rebuilt,
    )
    return UpdateResult(
        generation=new_gen,
        num_updates=len(updates),
        endpoints=tuple(endpoints),
        candidate_shards=tuple(candidate_shards),
        dirty_shards=tuple(dirty_shards),
        certified_clean_shards=store.num_shards - len(candidate_shards),
        landmarks_rebuilt=landmarks_rebuilt,
        rows_resolved=rows_resolved,
        landmark_rows_resolved=landmark_rows_resolved,
        rebuild_rows=n,
        pruned_files=tuple(pruned),
        store=DistStore.open(store.path),
    )

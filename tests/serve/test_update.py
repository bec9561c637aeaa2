"""Incremental edge updates: COW generations, byte identity, drills."""

from __future__ import annotations

import shutil
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.runner import solve_apsp
from repro.exceptions import GraphError, StoreCorruptionError, StoreError
from repro.graphs import (
    CSRGraph,
    attach_random_weights,
    barabasi_albert,
    from_edges,
)
from repro.serve import (
    DistStore,
    QueryEngine,
    apply_edge_updates,
    apply_updates_to_graph,
    parse_edge_updates,
    solve_to_store,
)
from repro.serve.store import _graph_crc32
from repro.serve.update import EdgeUpdate
from tests.serve.edge_oracle import edge_weights, mutate_by_dict


def _crcs(store):
    """Byte-identity fingerprint: per-shard + landmark checksums + ids.

    Checksums cover the encoded bytes and shard sizes are fixed by the
    manifest, so equal crcs means the served payloads are byte-equal
    regardless of the (generation-suffixed) file names underneath.
    """
    return (
        tuple(entry["crc32"] for entry in store.manifest["shards"]),
        store.manifest["landmarks"]["crc32"],
        tuple(store.manifest["landmarks"]["ids"]),
    )


@pytest.fixture()
def built(small_weighted, tmp_path):
    store = solve_to_store(
        small_weighted, tmp_path / "store", shard_rows=16, num_landmarks=4
    )
    return store, small_weighted


class TestBatchParsing:
    def test_dsl_round_trip(self):
        got = parse_edge_updates("set=1,2,5.0; del=3,4 ;set=9,7,0.25")
        assert got == [
            EdgeUpdate(1, 2, 5.0),
            EdgeUpdate(3, 4, None),
            EdgeUpdate(9, 7, 0.25),
        ]
        assert got[2].key == (7, 9)

    @pytest.mark.parametrize(
        "text",
        [
            "frob=1,2",          # unknown op
            "set=1,2",           # set needs a weight
            "del=1,2,3",         # del takes exactly two vertices
            "set=a,b,1.0",       # non-integer vertices
            "del=1",             # too few fields
            "set",               # no '=' at all
        ],
    )
    def test_dsl_rejects_malformed(self, text):
        with pytest.raises(StoreError, match="edge update"):
            parse_edge_updates(text)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EdgeUpdate(3, 3, 1.0),           # self loop
            lambda: EdgeUpdate(-1, 2, 1.0),          # negative vertex
            lambda: EdgeUpdate(1, 2, 0.0),           # non-positive weight
            lambda: EdgeUpdate(1, 2, -4.0),
            lambda: EdgeUpdate(1, 2, float("inf")),
            lambda: EdgeUpdate(1, 2, float("nan")),
            lambda: EdgeUpdate(True, 2, 1.0),        # bool is not an int
        ],
    )
    def test_update_field_validation(self, build):
        with pytest.raises(StoreError):
            build()


class TestGraphMutation:
    def test_insert_delete_reweight(self, small_weighted):
        edges = edge_weights(small_weighted)
        (e_del, _), (e_rw, _) = sorted(edges.items())[:2]
        non_edge = next(
            (u, v)
            for u in range(small_weighted.num_vertices)
            for v in range(u + 1, small_weighted.num_vertices)
            if (u, v) not in edges
        )
        batch = [
            EdgeUpdate(*e_del),
            EdgeUpdate(*e_rw, weight=3.25),
            EdgeUpdate(*non_edge, weight=1.5),
        ]
        mutated = apply_updates_to_graph(small_weighted, batch)
        new_edges = edge_weights(mutated)
        assert e_del not in new_edges
        assert new_edges[e_rw] == 3.25
        assert new_edges[non_edge] == 1.5
        assert len(new_edges) == len(edges)  # -1 +1
        # the input graph is untouched
        assert edge_weights(small_weighted) == edges

    def test_rejects_deleting_absent_edge(self, small_weighted):
        edges = edge_weights(small_weighted)
        non_edge = next(
            (u, v)
            for u in range(small_weighted.num_vertices)
            for v in range(u + 1, small_weighted.num_vertices)
            if (u, v) not in edges
        )
        with pytest.raises(StoreError, match="absent"):
            apply_updates_to_graph(small_weighted, [EdgeUpdate(*non_edge)])

    def test_rejects_duplicate_keys_and_out_of_range(self, small_weighted):
        with pytest.raises(StoreError, match="twice"):
            apply_updates_to_graph(
                small_weighted,
                [EdgeUpdate(1, 2, 1.0), EdgeUpdate(2, 1, 2.0)],
            )
        with pytest.raises(StoreError, match="out of range"):
            apply_updates_to_graph(
                small_weighted, [EdgeUpdate(1, 10_000, 1.0)]
            )

    def test_rejects_directed_graph(self):
        from repro.graphs import from_edges

        directed = from_edges(
            [(0, 1, 1.0), (1, 2, 1.0)], num_vertices=3, directed=True
        )
        with pytest.raises(StoreError, match="undirected"):
            apply_updates_to_graph(directed, [EdgeUpdate(0, 2, 1.0)])


def _arrays(graph):
    return (graph.indptr.tobytes(), graph.indices.tobytes(),
            graph.weights.tobytes(), graph.name)


def _outcome(mutate, graph, batch):
    """``("ok", arrays)`` or ``("err", type, message)`` of one mutation."""
    try:
        return ("ok", _arrays(mutate(graph, batch)))
    except (StoreError, GraphError) as exc:
        return ("err", type(exc), str(exc))


@st.composite
def csr_graphs(draw):
    """Small undirected graphs: float, unit or integral weights, with
    isolated vertices; some are hand-built CSR with unsorted rows and
    parallel arcs."""
    n = draw(st.integers(min_value=2, max_value=12))
    kind = draw(st.sampled_from(["float", "unit", "integral"]))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1]),
        max_size=3 * n,
    ))
    if kind == "float":
        weight = st.floats(0.05, 40.0, allow_nan=False, allow_infinity=False)
    elif kind == "unit":
        weight = st.just(1.0)
    else:
        weight = st.integers(1, 9).map(float)
    edges = [(u, v, draw(weight)) for u, v in pairs]
    name = draw(st.sampled_from(["", "g"]))
    if not draw(st.booleans()):
        return from_edges(edges, num_vertices=n, name=name)
    # hand-built: both arcs of every drawn edge, rows in draw order
    arcs = [(u, v, w) for u, v, w in edges] + [(v, u, w) for u, v, w in edges]
    arcs.sort(key=lambda a: a[0])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount([a[0] for a in arcs], minlength=n), out=indptr[1:])
    return CSRGraph(
        indptr,
        np.array([a[1] for a in arcs], dtype=np.int64),
        np.array([a[2] for a in arcs], dtype=np.float64),
        name=name,
    )


@st.composite
def mixed_batches(draw, graph):
    """Distinct-key insert, delete, reweight and no-op reweight, inserts
    at vertex 0 and n - 1 included; often plus one invalid item (absent
    delete, repeated edge, out-of-range vertex) somewhere."""
    n = graph.num_vertices
    edges = edge_weights(graph)
    keys = sorted(edges)
    ends = st.sampled_from([0, n - 1]) | st.integers(0, n - 1)
    weight = st.floats(0.05, 40.0, allow_nan=False, allow_infinity=False)
    batch = {}
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["insert", "delete", "reweight", "noop"]))
        if kind == "insert" or not keys:
            u, v = draw(ends), draw(ends)
            upd = EdgeUpdate(u, v, draw(weight)) if u != v else None
        else:
            u, v = draw(st.sampled_from(keys))
            if kind == "delete":
                upd = EdgeUpdate(v, u, None)
            else:
                upd = EdgeUpdate(u, v, edges[(u, v)] if kind == "noop"
                                 else draw(weight))
        if upd is not None and upd.key not in batch:
            batch[upd.key] = upd
    batch = list(batch.values())
    bad = draw(st.sampled_from([None, "absent", "again", "range"]))
    if bad == "range":
        upd = EdgeUpdate(0, n + draw(st.integers(0, 3)), 1.0)
    elif bad == "again" and batch:
        u, v = draw(st.sampled_from(batch)).key
        upd = EdgeUpdate(v, u, None)
    elif bad == "absent" and len(keys) < n * (n - 1) // 2:
        upd = EdgeUpdate(*next(
            (u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in edges
        ))
    else:
        return batch
    batch.insert(draw(st.integers(0, len(batch))), upd)
    return batch


class TestArrayMutationOracle:
    """The array-form mutation equals the dict path bitwise."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_dict_path(self, data):
        graph = data.draw(csr_graphs())
        batch = data.draw(mixed_batches(graph))
        before = _arrays(graph)
        assert _outcome(apply_updates_to_graph, graph, batch) == _outcome(
            mutate_by_dict, graph, batch
        )
        assert _arrays(graph) == before

    def test_parallel_arcs_last_weight_wins(self):
        # hand-built CSR: arcs (0, 2) and (0, 1) out of order, (0, 1)
        # twice; a dict of the arcs in CSR order keeps the last weight
        graph = CSRGraph(
            np.array([0, 3, 5, 6]),
            np.array([2, 1, 1, 0, 0, 0]),
            np.array([4.0, 2.0, 3.0, 2.0, 3.0, 4.0]),
        )
        mutated = apply_updates_to_graph(graph, [EdgeUpdate(1, 2, 5.0)])
        assert edge_weights(mutated) == {(0, 1): 3.0, (0, 2): 4.0, (1, 2): 5.0}
        assert _arrays(mutated) == _arrays(
            mutate_by_dict(graph, [EdgeUpdate(1, 2, 5.0)])
        )

    def test_non_positive_weights_raise_graph_error_after_batch_checks(self):
        graph = CSRGraph(
            np.array([0, 1, 3, 4]),
            np.array([1, 0, 2, 1]),
            np.array([-1.0, -1.0, 2.0, 2.0]),
            allow_negative=True,
        )
        for batch, error, match in (
            ([EdgeUpdate(0, 2, 1.0)], GraphError, "strictly positive"),
            ([EdgeUpdate(0, 2, 1.0), EdgeUpdate(0, 2)], StoreError, "twice"),
            ([EdgeUpdate(0, 2)], StoreError, "absent"),
        ):
            with pytest.raises(error, match=match):
                apply_updates_to_graph(graph, batch)
            assert _outcome(apply_updates_to_graph, graph, batch) == \
                _outcome(mutate_by_dict, graph, batch)

    def test_errors_keep_their_order(self, small_weighted):
        """Per item in batch order: type, range, repeat; absent deletes
        only once every item passed."""
        edges = edge_weights(small_weighted)
        absent = EdgeUpdate(*next(
            (0, v) for v in range(1, small_weighted.num_vertices)
            if (0, v) not in edges
        ))
        for batch, match in (
            ([absent, EdgeUpdate(1, 10_000, 1.0)], "out of range"),
            ([absent, EdgeUpdate(1, 2, 1.0), EdgeUpdate(2, 1)], "twice"),
            ([EdgeUpdate(1, 2, 1.0), absent], "absent"),
            ([EdgeUpdate(1, 2, 1.0), "1,2"], "EdgeUpdate"),
        ):
            with pytest.raises(StoreError, match=match):
                apply_updates_to_graph(small_weighted, batch)
            assert _outcome(apply_updates_to_graph, small_weighted, batch) \
                == _outcome(mutate_by_dict, small_weighted, batch)


class TestGenerations:
    def test_update_is_byte_identical_to_fresh_build(self, built, tmp_path):
        store, graph = built
        edges = edge_weights(graph)
        (u, v), w = sorted(edges.items())[0]
        batch = [EdgeUpdate(u, v, w / 2.0)]  # decrease: provably dirty
        result = apply_edge_updates(store, graph, batch)

        assert result.generation == 1
        assert result.store.generation == 1
        assert result.dirty_shards  # a halved edge weight must dirty rows
        mutated = apply_updates_to_graph(graph, batch)
        fresh = solve_to_store(
            mutated, tmp_path / "fresh", shard_rows=16, num_landmarks=4
        )
        assert _crcs(result.store) == _crcs(fresh)
        result.store.verify()
        ref = solve_apsp(mutated, use_flags=False).dist
        assert np.array_equal(result.store.load_shard(0), ref[:16])

    def test_cow_files_coexist_and_generation_increments(self, built):
        store, graph = built
        edges = edge_weights(graph)
        (u, v), w = sorted(edges.items())[0]

        r1 = apply_edge_updates(store, graph, [EdgeUpdate(u, v, w / 2.0)])
        g1_files = sorted(p.name for p in r1.store.path.glob("*.g0001.bin"))
        assert g1_files  # dirty shards written beside the old generation
        # old generation files survive (no prune by default) so live
        # readers holding the old manifest keep working
        assert (r1.store.path / "shard_00000.bin").exists()
        old = DistStore.open(store.path)
        assert old.generation == 1  # the manifest swap is the publish

        graph1 = apply_updates_to_graph(graph, [EdgeUpdate(u, v, w / 2.0)])
        r2 = apply_edge_updates(r1.store, graph1, [EdgeUpdate(u, v)])
        assert r2.generation == 2
        assert sorted(p.name for p in r2.store.path.glob("*.g0002.bin"))

    @pytest.mark.parametrize("codec", ["raw", "u16qd"])
    def test_old_manifest_is_never_mutated(self, small_weighted, codec,
                                           tmp_path):
        import copy

        graph = small_weighted
        store = solve_to_store(
            graph, tmp_path / "store", shard_rows=16, num_landmarks=4,
            codec=codec,
        )
        snapshot = copy.deepcopy(store.manifest)
        edges = edge_weights(graph)
        (u, v), w = sorted(edges.items())[0]
        hub = int(np.argmax(np.diff(graph.indptr)))
        # a decrease, and inserts at the top hub, which may reorder
        # the u16qd degree order and the landmark set
        batch = [EdgeUpdate(u, v, w / 2.0)] + [
            EdgeUpdate(hub, x, 0.5)
            for x in range(graph.num_vertices - 6, graph.num_vertices)
            if x != hub and (min(hub, x), max(hub, x)) not in edges
        ]
        result = apply_edge_updates(store, graph, batch)
        assert result.dirty_shards
        assert result.store.manifest != snapshot
        assert store.manifest == snapshot

    def test_noop_reweight_is_free(self, built):
        store, graph = built
        (u, v), w = sorted(edge_weights(graph).items())[0]
        before = _crcs(store)
        result = apply_edge_updates(store, graph, [EdgeUpdate(u, v, w)])
        assert result.generation == 1
        assert result.dirty_shards == ()
        assert result.endpoints == ()
        assert result.cost_rows == 0
        assert _crcs(result.store) == before

    def test_prune_removes_superseded_files(self, built):
        store, graph = built
        (u, v), w = sorted(edge_weights(graph).items())[0]
        result = apply_edge_updates(
            store,
            graph,
            [EdgeUpdate(u, v, w / 2.0)],
            prune=True,
        )
        assert result.pruned_files
        for name in result.pruned_files:
            assert not (result.store.path / name).exists()
        result.store.verify()

    def test_prescreen_off_is_byte_equivalent(self, built, tmp_path):
        store, graph = built
        (u, v), w = sorted(edge_weights(graph).items())[0]
        batch = [EdgeUpdate(u, v, w / 2.0)]
        with_screen = apply_edge_updates(store, graph, batch)

        other = solve_to_store(
            graph, tmp_path / "other", shard_rows=16, num_landmarks=4
        )
        without = apply_edge_updates(
            other, graph, batch, prescreen=False
        )
        assert without.dirty_shards == with_screen.dirty_shards
        assert without.certified_clean_shards == 0
        assert _crcs(without.store) == _crcs(with_screen.store)

    def test_result_to_dict_is_json_plain(self, built):
        import json

        store, graph = built
        (u, v), w = sorted(edge_weights(graph).items())[0]
        result = apply_edge_updates(store, graph, [EdgeUpdate(u, v, w / 2)])
        payload = result.to_dict()
        json.dumps(payload)
        assert payload["generation"] == 1
        assert payload["cost_rows"] == result.cost_rows
        assert 0.0 <= payload["cost_ratio"] <= 2.0


class TestGuards:
    def test_wrong_graph_rejected_before_any_write(self, built):
        store, graph = built
        imposter = attach_random_weights(
            barabasi_albert(graph.num_vertices, 3, seed=9), seed=99
        )
        before = _crcs(store)
        (u, v), w = sorted(edge_weights(imposter).items())[0]
        with pytest.raises(StoreError, match="graph"):
            apply_edge_updates(store, imposter, [EdgeUpdate(u, v, w / 2)])
        survivor = DistStore.open(store.path)
        assert survivor.generation == 0
        assert _crcs(survivor) == before

    def test_wrong_vertex_count_rejected(self, built):
        store, _ = built
        small = attach_random_weights(barabasi_albert(10, 2, seed=1), seed=2)
        with pytest.raises(StoreError, match="vertices"):
            apply_edge_updates(store, small, [EdgeUpdate(0, 5, 1.0)])

    def test_pre_update_graph_refused_on_next_generation(self, built):
        """After one batch the store serves the mutated graph; the
        graph it was first built from no longer matches its digest."""
        store, graph = built
        (u, v), w = sorted(edge_weights(graph).items())[0]
        first = apply_edge_updates(store, graph, [EdgeUpdate(u, v, w / 2)])
        files = {p.name: p.read_bytes() for p in store.path.iterdir()}
        with pytest.raises(StoreError, match="graph"):
            apply_edge_updates(first.store, graph, [EdgeUpdate(u, v)])
        assert {p.name: p.read_bytes() for p in store.path.iterdir()} == files
        mutated = apply_updates_to_graph(graph, [EdgeUpdate(u, v, w / 2)])
        assert first.store.manifest["graph"]["crc32"] == _graph_crc32(mutated)

    def test_store_without_graph_digest_refused(self, built):
        import json

        store, graph = built
        manifest_path = store.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["graph"]["crc32"]
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        (u, v), w = sorted(edge_weights(graph).items())[0]
        with pytest.raises(StoreError, match="digest"):
            apply_edge_updates(DistStore.open(store.path), graph,
                               [EdgeUpdate(u, v, w / 2)])

    def test_config_object_is_not_a_call_form(self, built):
        store, graph = built
        with pytest.raises(TypeError):
            apply_edge_updates(
                store, graph, [EdgeUpdate(0, 1, 1.0)], config={"prune": True}
            )

    def test_verify_before_catches_rotten_store(self, built):
        store, graph = built
        (u, v), w = sorted(edge_weights(graph).items())[0]
        shard_file = store.path / store.manifest["shards"][1]["file"]
        raw = bytearray(shard_file.read_bytes())
        raw[0] ^= 0xFF
        shard_file.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptionError):
            apply_edge_updates(store, graph, [EdgeUpdate(u, v, w / 2)])


class TestInFlightCorruptionDrill:
    def test_damaged_pending_file_aborts_with_old_generation(self, built):
        store, graph = built
        (u, v), w = sorted(edge_weights(graph).items())[0]
        before = _crcs(store)

        def damage_pending(old_store, new_manifest):
            pending = sorted(old_store.path.glob("*.g0001.bin"))
            assert pending  # the hook runs after the new files land
            raw = bytearray(pending[0].read_bytes())
            raw[0] ^= 0xFF
            pending[0].write_bytes(bytes(raw))

        with pytest.raises(StoreCorruptionError):
            apply_edge_updates(
                store,
                graph,
                [EdgeUpdate(u, v, w / 2.0)],
                pre_swap_hook=damage_pending,
            )
        survivor = DistStore.open(store.path)
        assert survivor.generation == 0
        assert _crcs(survivor) == before
        survivor.verify()
        # the aborted generation leaves no orphans behind
        assert not list(survivor.path.glob("*.g0001.bin"))

    @pytest.mark.parametrize("damage", ["flip", "truncate", "delete"])
    def test_pending_file_faults_are_typed_and_uncounted(self, built, damage):
        from repro.obs import MetricsRegistry, use_registry

        store, graph = built
        (u, v), w = sorted(edge_weights(graph).items())[0]
        damaged = []

        def damage_pending(old_store, new_manifest):
            path = sorted(old_store.path.glob("*.g0001.bin"))[0]
            damaged.append(path.name)
            if damage == "delete":
                path.unlink()
            elif damage == "truncate":
                path.write_bytes(path.read_bytes()[:-3])
            else:
                raw = bytearray(path.read_bytes())
                raw[0] ^= 0xFF
                path.write_bytes(bytes(raw))

        registry = MetricsRegistry()
        with use_registry(registry), pytest.raises(StoreError) as exc_info:
            apply_edge_updates(store, graph, [EdgeUpdate(u, v, w / 2.0)],
                               pre_swap_hook=damage_pending)
        assert not isinstance(exc_info.value, OSError)
        if damage != "delete":
            assert isinstance(exc_info.value, StoreCorruptionError)
            assert exc_info.value.shards == (damaged[0],)
        counters = registry.counters()
        assert "serve.store.corruption_detected" not in counters
        assert "serve.store.shard_loads" not in counters
        assert DistStore.open(store.path).generation == 0
        assert not list(store.path.glob("*.g0001.bin"))


class TestEngineGenerations:
    def test_refresh_swaps_answers_atomically(self, built):
        store, graph = built
        engine = QueryEngine(store, cache_shards=2)
        (u, v), w = sorted(edge_weights(graph).items())[0]
        old_answer = engine.dist(u, v)

        batch = [EdgeUpdate(u, v, 0.01)]
        apply_edge_updates(store, graph, batch)
        # pre-refresh the engine still serves its old snapshot — a
        # half-adopted store would be a torn read
        assert engine.dist(u, v) == old_answer
        assert engine.refresh() == 1
        # weights are >= 0.5, so the direct 0.01 edge IS the shortest path
        assert engine.dist(u, v) == 0.01
        mutated = apply_updates_to_graph(graph, batch)
        ref = solve_apsp(mutated, use_flags=False).dist
        assert np.array_equal(engine.dist_from(u), ref[u])

    def test_threaded_readers_never_mix_generations(self, built):
        store, graph = built
        engine = QueryEngine(store, cache_shards=2)
        (u, v), _ = sorted(edge_weights(graph).items())[0]
        old_answer = engine.dist(u, v)
        new_answer = 0.01

        stop = threading.Event()
        observed = [[] for _ in range(4)]

        def reader(bucket):
            while not stop.is_set():
                bucket.append(engine.dist(u, v))

        threads = [
            threading.Thread(target=reader, args=(b,)) for b in observed
        ]
        for t in threads:
            t.start()
        try:
            apply_edge_updates(store, graph, [EdgeUpdate(u, v, new_answer)])
            engine.refresh()
        finally:
            stop.set()
            for t in threads:
                t.join()

        seen = {val for bucket in observed for val in bucket}
        # every answer comes wholly from one generation — a value from
        # neither reference would mean a reader straddled the swap
        assert seen <= {old_answer, new_answer}
        assert engine.dist(u, v) == new_answer


@pytest.fixture(scope="module")
def base_stores(small_weighted, tmp_path_factory):
    """One pre-built gen-0 store per codec, copied fresh per example."""
    root = tmp_path_factory.mktemp("update-bases")
    paths = {}
    for codec in ("raw", "f4", "u16q"):
        paths[codec] = root / codec
        solve_to_store(
            small_weighted,
            paths[codec],
            shard_rows=16,
            num_landmarks=4,
            codec=codec,
        )
    return paths


@st.composite
def update_batches(draw, edges, n):
    """1-3 distinct-key mutations: delete, reweight, or insert."""
    keys = sorted(edges)
    batch = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["delete", "reweight", "insert"]))
        if kind == "insert":
            u = draw(st.integers(min_value=0, max_value=n - 1))
            v = draw(st.integers(min_value=0, max_value=n - 1))
            key = (min(u, v), max(u, v))
            assume(u != v and key not in edges)
        else:
            key = keys[draw(st.integers(min_value=0, max_value=len(keys) - 1))]
        assume(key not in batch)
        if kind == "delete":
            batch[key] = EdgeUpdate(*key)
        else:
            w = draw(
                st.floats(
                    min_value=0.05,
                    max_value=40.0,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
            batch[key] = EdgeUpdate(*key, weight=w)
    return list(batch.values())


class TestByteIdentityProperty:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data(), codec=st.sampled_from(["raw", "f4", "u16q"]))
    def test_update_equals_fresh_build(
        self, data, codec, base_stores, small_weighted
    ):
        batch = data.draw(
            update_batches(
                edge_weights(small_weighted), small_weighted.num_vertices
            )
        )
        with tempfile.TemporaryDirectory() as tmp:
            live = f"{tmp}/live"
            shutil.copytree(base_stores[codec], live)
            store = DistStore.open(live)
            result = apply_edge_updates(store, small_weighted, batch)
            assert result.generation == 1
            result.store.verify()

            mutated = apply_updates_to_graph(small_weighted, batch)
            fresh = solve_to_store(
                mutated,
                f"{tmp}/fresh",
                shard_rows=16,
                num_landmarks=4,
                codec=codec,
            )
            assert _crcs(result.store) == _crcs(fresh)

"""Store corruption: deterministic injection, detection, exact repair."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.runner import solve_apsp
from repro.exceptions import (
    FaultPlanError,
    StoreCorruptionError,
    StoreError,
)
from repro.faults import StoreCorruptionSpec, parse_store_corruption
from repro.graphs.generators import (
    attach_negative_weights,
    attach_random_weights,
    erdos_renyi,
)
from repro.obs import MetricsRegistry, use_registry
from repro.serve import solve_to_store


@pytest.fixture()
def built(small_weighted, tmp_path):
    store = solve_to_store(
        small_weighted, tmp_path / "store", shard_rows=16, num_landmarks=3
    )
    return store, small_weighted


class TestSpec:
    def test_deterministic_offsets(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(bytes(1000))
        spec = StoreCorruptionSpec(shard=0, nbytes=5, seed=7)
        offsets_a = spec.apply(path)
        path.write_bytes(bytes(1000))
        offsets_b = spec.apply(path)
        assert offsets_a.tolist() == offsets_b.tolist()
        assert len(offsets_a) == 5

    def test_xor_always_changes_bytes(self, tmp_path):
        path = tmp_path / "blob"
        original = bytes(range(256)) * 4
        path.write_bytes(original)
        offsets = StoreCorruptionSpec(shard=0, nbytes=16, seed=1).apply(path)
        damaged = path.read_bytes()
        for off in offsets:
            assert damaged[off] != original[off]

    def test_dsl_round_trip(self):
        spec = parse_store_corruption("shard=2,nbytes=4,seed=7")
        assert spec == StoreCorruptionSpec(shard=2, nbytes=4, seed=7)
        assert StoreCorruptionSpec.from_dict(spec.to_dict()) == spec

    def test_dsl_and_field_validation(self):
        with pytest.raises(FaultPlanError):
            parse_store_corruption("shard=2,bogus=1")
        with pytest.raises(FaultPlanError):
            parse_store_corruption("shard")
        with pytest.raises(FaultPlanError):
            parse_store_corruption("nbytes=1")  # shard required
        with pytest.raises(FaultPlanError):
            StoreCorruptionSpec(shard=-1)
        with pytest.raises(FaultPlanError):
            StoreCorruptionSpec(shard=0, nbytes=0)


class TestStoreResolution:
    def test_resolve_finds_manifest_path(self, built):
        store, _ = built
        spec = StoreCorruptionSpec(shard=2, nbytes=3, seed=5)
        target = spec.resolve(store)
        assert target == store.path / store.manifest["shards"][2]["file"]

    def test_resolve_rejects_out_of_range_shard(self, built):
        store, _ = built
        spec = StoreCorruptionSpec(shard=store.num_shards, nbytes=1)
        with pytest.raises(FaultPlanError, match="shard"):
            spec.resolve(store)

    def test_apply_to_store_damages_encoded_bytes(self, built):
        store, _ = built
        spec = StoreCorruptionSpec(shard=1, nbytes=4, seed=9)
        before = spec.resolve(store).read_bytes()
        spec.apply_to_store(store)
        assert spec.resolve(store).read_bytes() != before
        with pytest.raises(StoreCorruptionError):
            store.load_shard(1)


class TestDetectionAndRepair:
    def test_load_shard_detects(self, built):
        store, _ = built
        target = store.path / store.manifest["shards"][2]["file"]
        StoreCorruptionSpec(shard=2, nbytes=3, seed=5).apply(target)
        with pytest.raises(StoreCorruptionError) as exc_info:
            store.load_shard(2)
        assert exc_info.value.shards == (2,)
        # unverified load still works (how repair reads around damage)
        store.load_shard(2, verify=False)

    def test_verify_reports_all_damaged_shards(self, built):
        store, _ = built
        for shard in (1, 3):
            StoreCorruptionSpec(shard=shard, nbytes=2, seed=shard).apply(
                store.path / store.manifest["shards"][shard]["file"]
            )
        with pytest.raises(StoreCorruptionError) as exc_info:
            store.verify()
        assert set(exc_info.value.shards) == {1, 3}

    def test_repair_is_byte_exact(self, built):
        store, graph = built
        target = store.path / store.manifest["shards"][2]["file"]
        before = target.read_bytes()
        StoreCorruptionSpec(shard=2, nbytes=6, seed=11).apply(target)
        assert store.repair(graph) == [2]
        assert target.read_bytes() == before
        store.verify()
        ref = solve_apsp(graph, use_flags=False).dist
        assert np.array_equal(store.load_shard(2), ref[32:48])

    def test_retired_config_keys_stay_repairable(self, built):
        """Stores built by earlier versions carry ``algorithm.delta`` and
        a ``batch`` group in their manifest config; repair and updates
        must still read it."""
        import json

        from repro.serve import DistStore, apply_edge_updates
        from repro.serve.update import EdgeUpdate
        from tests.serve.edge_oracle import edge_weights

        store, graph = built
        manifest_path = store.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["algorithm"]["delta"] = 0.25
        manifest["config"]["batch"] = {"block_size": 64, "kernel": "blocked"}
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        store = DistStore.open(store.path)

        target = store.path / store.manifest["shards"][2]["file"]
        before = target.read_bytes()
        StoreCorruptionSpec(shard=2, nbytes=6, seed=11).apply(target)
        assert store.repair(graph) == [2]
        assert target.read_bytes() == before
        store.verify()

        (u, v), w = sorted(edge_weights(graph).items())[0]
        result = apply_edge_updates(store, graph, [EdgeUpdate(u, v, w / 2)])
        assert result.generation == 1
        result.store.verify()

    def test_repair_clean_store_is_noop(self, built):
        store, graph = built
        assert store.repair(graph) == []

    def test_repair_rejects_wrong_graph(self, built, small_ba):
        store, _ = built
        target = store.path / store.manifest["shards"][0]["file"]
        StoreCorruptionSpec(shard=0, nbytes=2, seed=0).apply(target)
        from repro.graphs import attach_random_weights

        imposter = attach_random_weights(small_ba, seed=99)
        if imposter.num_vertices != store.n:
            with pytest.raises(StoreError):
                store.repair(imposter)
        else:
            with pytest.raises(StoreError, match="graph"):
                store.repair(imposter)

    def test_landmark_corruption_detected_and_repaired(self, built):
        store, graph = built
        lm_path = store.path / store.manifest["landmarks"]["file"]
        before = lm_path.read_bytes()
        StoreCorruptionSpec(shard=0, nbytes=4, seed=2).apply(lm_path)
        with pytest.raises(StoreCorruptionError):
            store.landmark_rows()
        assert store.repair(graph) == ["landmarks"]
        assert lm_path.read_bytes() == before

    @pytest.mark.parametrize("algorithm", ["parapsp", "johnson"])
    def test_landmark_repair_solves_only_the_landmarks(
        self, tmp_path, algorithm
    ):
        graph = attach_random_weights(
            erdos_renyi(64, 0.08, seed=5, directed=True), seed=6
        )
        if algorithm == "johnson":
            graph = attach_negative_weights(graph, seed=7)
            assert graph.has_negative_weights
        store = solve_to_store(
            graph, tmp_path / "store", shard_rows=16, num_landmarks=5,
            algorithm=algorithm,
        )
        ids = store.manifest["landmarks"]["ids"]
        lm_path = store.path / store.manifest["landmarks"]["file"]
        before = lm_path.read_bytes()
        StoreCorruptionSpec(shard=0, nbytes=4, seed=2).apply(lm_path)
        reg = MetricsRegistry()
        with use_registry(reg):
            assert store.repair(graph) == ["landmarks"]
        # one row per landmark, not one whole shard per landmark
        assert reg.counters()["sweep.native_rows"] == len(ids) == 5
        assert lm_path.read_bytes() == before

    def test_landmark_target_dsl_and_dict_round_trip(self):
        spec = parse_store_corruption("target=landmarks,nbytes=2,seed=3")
        assert spec.target == "landmarks"
        assert spec.shard == 0  # auto-filled, unused for this target
        assert spec.to_dict() == {
            "shard": 0, "nbytes": 2, "seed": 3, "target": "landmarks",
        }
        assert StoreCorruptionSpec.from_dict(spec.to_dict()) == spec
        # the default target stays out of the dict for older readers
        assert "target" not in StoreCorruptionSpec(shard=1).to_dict()
        with pytest.raises(FaultPlanError):
            StoreCorruptionSpec(shard=0, target="manifest")

    def test_landmark_target_resolves_and_damages(self, built):
        store, graph = built
        spec = StoreCorruptionSpec(shard=0, nbytes=3, seed=4,
                                   target="landmarks")
        target = spec.resolve(store)
        assert target == store.path / store.manifest["landmarks"]["file"]
        spec.apply_to_store(store)
        with pytest.raises(StoreCorruptionError) as exc_info:
            store.verify()
        assert exc_info.value.shards == ("landmarks",)
        assert store.repair(graph) == ["landmarks"]
        store.verify()

    def test_landmark_target_requires_pinned_landmarks(
        self, small_weighted, tmp_path
    ):
        store = solve_to_store(
            small_weighted, tmp_path / "bare", shard_rows=32,
            num_landmarks=0,
        )
        spec = StoreCorruptionSpec(shard=0, target="landmarks")
        with pytest.raises(FaultPlanError, match="no landmarks"):
            spec.resolve(store)

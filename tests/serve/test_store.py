"""DistStore: streaming build, bitwise round-trip, memory bound."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.core.runner import solve_apsp, solve_apsp_rows, solve_apsp_shards
from repro.exceptions import ConfigError, StoreError
from repro.serve import STORE_SCHEMA_VERSION, DistStore, solve_to_store


@pytest.fixture()
def store_and_ref(small_weighted, tmp_path):
    store = solve_to_store(
        small_weighted, tmp_path / "store", shard_rows=16, num_landmarks=4
    )
    ref = solve_apsp(small_weighted, use_flags=False).dist
    return store, ref


class TestStreamingSolve:
    def test_bitwise_across_shard_sizes(self, small_weighted):
        ref = solve_apsp(small_weighted, use_flags=False).dist
        n = small_weighted.num_vertices
        for shard_rows in (1, 7, 32, n, n + 50):
            out = np.empty_like(ref)
            for start, rows in solve_apsp_shards(
                small_weighted, shard_rows=shard_rows, use_flags=False
            ):
                out[start:start + rows.shape[0]] = rows
            assert np.array_equal(out, ref)

    def test_full_shard_matches_flags_off_solver(self, small_weighted):
        # shards are flagless whatever use_flags says: one full shard with
        # the default options holds the flagless solve's bits, not the
        # flag-merged sums (those can differ in the last bit)
        ref = solve_apsp(small_weighted, use_flags=False).dist
        n = small_weighted.num_vertices
        (start, rows), = solve_apsp_shards(small_weighted, shard_rows=n)
        assert start == 0
        assert rows.tobytes() == ref.tobytes()

    def test_row_range_restriction(self, small_weighted):
        # a row range is the source list range(start, stop)
        ref = solve_apsp(small_weighted, use_flags=False).dist
        rows = solve_apsp_rows(small_weighted, range(32, 64))
        assert rows.shape == (32, small_weighted.num_vertices)
        assert np.array_equal(rows, ref[32:64])

    def test_rejects_parallel_backend(self, small_weighted):
        with pytest.raises(ConfigError, match="parallel.backend"):
            next(
                solve_apsp_shards(
                    small_weighted, shard_rows=8, backend="threads"
                )
            )

    def test_rejects_bad_shard_rows_and_range(self, small_weighted):
        with pytest.raises(ConfigError, match="shard_rows"):
            next(solve_apsp_shards(small_weighted, shard_rows=0))
        # a row range is a source list of solve_apsp_rows, not a
        # keyword of the stream
        for key in ("start_row", "stop_row"):
            with pytest.raises(ConfigError, match=key):
                next(
                    solve_apsp_shards(
                        small_weighted, shard_rows=8, **{key: 8}
                    )
                )

    def test_buffer_is_reused_between_shards(self, small_weighted):
        gen = solve_apsp_shards(
            small_weighted, shard_rows=16, use_flags=False
        )
        _, first = next(gen)
        _, second = next(gen)
        # each yield is a view over the same backing buffer
        assert np.shares_memory(first, second)
        gen.close()


class TestStoreRoundTrip:
    def test_bitwise_round_trip_and_reopen(self, store_and_ref, tmp_path):
        store, ref = store_and_ref
        reopened = DistStore.open(tmp_path / "store")
        assert reopened.manifest["schema"] == STORE_SCHEMA_VERSION
        got = np.vstack(
            [reopened.load_shard(i) for i in range(reopened.num_shards)]
        )
        assert np.array_equal(got, ref)

    def test_row_access(self, store_and_ref):
        store, ref = store_and_ref
        for vertex in (0, 15, 16, 99):
            assert np.array_equal(store.row(vertex), ref[vertex])

    def test_landmarks_are_exact_rows(self, store_and_ref):
        store, ref = store_and_ref
        rows = store.landmark_rows()
        assert rows.shape == (len(store.landmark_ids), store.n)
        for i, vertex in enumerate(store.landmark_ids):
            assert np.array_equal(rows[i], ref[vertex])

    def test_build_peak_memory_bounded_by_shard(self, tmp_path):
        from repro.graphs import attach_random_weights, barabasi_albert

        graph = attach_random_weights(
            barabasi_albert(400, 3, seed=5), seed=6
        )
        n = graph.num_vertices
        shard_rows = 16
        tracemalloc.start()
        tracemalloc.reset_peak()
        solve_to_store(
            graph, tmp_path / "store", shard_rows=shard_rows,
            num_landmarks=2,
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        shard_bytes = shard_rows * n * 8
        # a shard buffer is 51 KB, the full matrix 1.28 MB.  A build
        # peaks at 3.5–4 shard buffers (the block, its encoding, the
        # solver's O(n) state); the bound leaves one buffer of headroom,
        # so three stray shard-sized buffers fail it
        assert peak < 5 * shard_bytes, peak / shard_bytes

    def test_hub_rows_cost_about_one_more_shard_buffer(self, tmp_path):
        from repro.graphs import attach_random_weights, barabasi_albert

        # unit weights reuse a 16-row hub block; float weights reuse none
        graph = barabasi_albert(400, 3, seed=5).with_unit_weights()
        shard_bytes = 16 * graph.num_vertices * 8
        peaks = []
        for g in (attach_random_weights(graph, seed=6), graph):
            tracemalloc.start()
            tracemalloc.reset_peak()
            solve_to_store(
                g, tmp_path / f"store{len(peaks)}", shard_rows=16,
                num_landmarks=2,
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2 * shard_bytes

    def test_store_bytes_independent_of_shard_rows(
        self, small_weighted, tmp_path
    ):
        a = solve_to_store(
            small_weighted, tmp_path / "a", shard_rows=16, num_landmarks=2
        )
        b = solve_to_store(
            small_weighted, tmp_path / "b", shard_rows=25, num_landmarks=2
        )
        got_a = np.vstack(
            [a.load_shard(i) for i in range(a.num_shards)]
        )
        got_b = np.vstack(
            [b.load_shard(i) for i in range(b.num_shards)]
        )
        assert np.array_equal(got_a, got_b)


class TestCodecStores:
    def test_raw_manifest_defaults(self, store_and_ref):
        store, _ = store_and_ref
        assert store.codec_name == "raw"
        assert store.max_abs_error == 0.0
        assert store.epsilon is None
        assert store.store_bytes() == store.n * store.n * 8
        assert store.shard_nbytes(0) == 16 * store.n * 8

    def test_v1_manifest_still_opens(self, store_and_ref, tmp_path):
        # down-convert the manifest to what schema /1 builds wrote:
        # no codec fields anywhere
        manifest_path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = "repro.serve.store/1"
        for key in ("codec", "codec_params", "max_abs_error", "epsilon"):
            manifest.pop(key, None)
        for entry in manifest["shards"]:
            for key in ("nbytes", "params", "max_abs_error"):
                entry.pop(key, None)
        manifest_path.write_text(json.dumps(manifest))
        store = DistStore.open(tmp_path / "store")
        assert store.codec_name == "raw"
        assert store.max_abs_error == 0.0
        assert store.shard_nbytes(0) == 16 * store.n * 8
        store.verify()
        np.testing.assert_array_equal(
            store.load_shard(0), store_and_ref[1][:16]
        )

    @pytest.mark.parametrize("codec", ["f4", "u16q", "u16qd"])
    def test_compressed_round_trip_within_bound(
        self, codec, small_weighted, tmp_path
    ):
        store = solve_to_store(
            small_weighted, tmp_path / codec, shard_rows=16,
            num_landmarks=4, codec=codec,
        )
        ref = solve_apsp(small_weighted, use_flags=False).dist
        got = np.vstack(
            [store.load_shard(i) for i in range(store.num_shards)]
        )
        assert np.array_equal(np.isfinite(got), np.isfinite(ref))
        finite = np.isfinite(ref)
        assert np.max(np.abs(got[finite] - ref[finite])) \
            <= store.max_abs_error
        assert store.manifest["codec"] == codec
        # per-shard certified bounds roll up to the store-level maximum
        shard_errs = [
            store.shard_error(i) for i in range(store.num_shards)
        ]
        assert store.max_abs_error == max(shard_errs)

    def test_compressed_stores_are_smaller(self, small_weighted,
                                           tmp_path):
        raw_bytes = None
        sizes = {}
        for codec in ("raw", "f4", "u16q"):
            store = solve_to_store(
                small_weighted, tmp_path / codec, shard_rows=16,
                num_landmarks=2, codec=codec,
            )
            sizes[codec] = store.store_bytes()
            if codec == "raw":
                raw_bytes = store.store_bytes()
        assert sizes["f4"] * 2 == raw_bytes
        assert sizes["u16q"] * 4 == raw_bytes

    def test_landmarks_stay_raw_under_compression(
        self, small_weighted, tmp_path
    ):
        store = solve_to_store(
            small_weighted, tmp_path / "q", shard_rows=16,
            num_landmarks=4, codec="u16q",
        )
        ref = solve_apsp(small_weighted, use_flags=False).dist
        rows = store.landmark_rows()
        for i, vertex in enumerate(store.landmark_ids):
            assert np.array_equal(rows[i], ref[vertex])

    def test_epsilon_recorded(self, small_weighted, tmp_path):
        store = solve_to_store(
            small_weighted, tmp_path / "eps", shard_rows=16,
            num_landmarks=4, epsilon=0.5,
        )
        assert store.epsilon == 0.5
        assert DistStore.open(tmp_path / "eps").epsilon == 0.5

    def test_store_config_object_path(self, small_weighted, tmp_path):
        from repro.config import StoreConfig

        cfg = StoreConfig(codec="u16q", shard_rows=32, num_landmarks=2)
        store = solve_to_store(small_weighted, tmp_path / "cfg",
                               **cfg.to_dict())
        assert store.codec_name == "u16q"
        assert store.shard_rows == 32
        assert len(store.landmark_ids) == 2
        # the store keywords are exactly the StoreConfig fields
        override = solve_to_store(
            small_weighted, tmp_path / "cfg2",
            **{**cfg.to_dict(), "codec": "raw"},
        )
        assert override.codec_name == "raw"

    def test_bad_codec_rejected(self, small_weighted, tmp_path):
        with pytest.raises(ConfigError, match="codec"):
            solve_to_store(
                small_weighted, tmp_path / "bad", codec="lz77"
            )
        with pytest.raises(ConfigError, match="epsilon"):
            solve_to_store(
                small_weighted, tmp_path / "bad", epsilon=-0.5
            )


class TestStoreValidation:
    def test_refuses_non_empty_dir(self, small_weighted, tmp_path):
        (tmp_path / "occupied").mkdir()
        (tmp_path / "occupied" / "junk").write_text("x")
        with pytest.raises(StoreError, match="non-empty"):
            solve_to_store(
                small_weighted, tmp_path / "occupied", shard_rows=16
            )

    def test_open_missing_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="manifest"):
            DistStore.open(tmp_path)

    def test_open_rejects_schema_mismatch(self, store_and_ref, tmp_path):
        manifest_path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = "repro.serve.store/999"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="schema"):
            DistStore.open(tmp_path / "store")

    def test_vertex_out_of_range(self, store_and_ref):
        store, _ = store_and_ref
        with pytest.raises(StoreError, match="out of range"):
            store.shard_of(store.n)

    def test_bad_num_landmarks(self, small_weighted, tmp_path):
        with pytest.raises(ConfigError, match="num_landmarks"):
            solve_to_store(
                small_weighted, tmp_path / "s", shard_rows=8,
                num_landmarks=-1,
            )

    def test_config_recorded_in_manifest(self, store_and_ref):
        store, _ = store_and_ref
        from repro.config import SolverConfig

        cfg = SolverConfig.from_dict(store.manifest["config"])
        assert cfg.algorithm.use_flags is False
        assert cfg.parallel.backend == "serial"


class TestAtomicBuild:
    def test_mid_build_fault_leaves_target_absent(
        self, small_weighted, tmp_path, monkeypatch
    ):
        import repro.core.runner as runner

        real = runner.solve_apsp_shards

        def exploding(*args, **kwargs):
            inner = real(*args, **kwargs)

            def wrap():
                yield next(inner)
                raise RuntimeError("injected mid-build fault")

            return wrap()

        monkeypatch.setattr(runner, "solve_apsp_shards", exploding)
        target = tmp_path / "store"
        with pytest.raises(RuntimeError, match="mid-build"):
            solve_to_store(small_weighted, target, shard_rows=16)
        # the build happened in a temp sibling: the target path never
        # existed, and the sibling is swept on failure
        assert not target.exists()
        assert not list(tmp_path.glob(".store.build-*"))
        # a retry is not blocked by partial output
        monkeypatch.undo()
        store = solve_to_store(small_weighted, target, shard_rows=16)
        store.verify()


class TestLandmarkIntegrity:
    def test_failed_repair_leaves_damaged_file_untouched(
        self, store_and_ref, tmp_path
    ):
        from repro.graphs import attach_random_weights, barabasi_albert

        store, _ = store_and_ref
        lm_path = store.path / store.manifest["landmarks"]["file"]
        raw = bytearray(lm_path.read_bytes())
        raw[0] ^= 0xFF
        lm_path.write_bytes(bytes(raw))
        damaged = lm_path.read_bytes()
        imposter = attach_random_weights(
            barabasi_albert(store.n, 3, seed=9), seed=77
        )
        with pytest.raises(StoreError, match="graph"):
            store.repair(imposter)
        # verify-before-write: the failed repair must not have installed
        # the imposter's landmark bytes over the damaged file
        assert lm_path.read_bytes() == damaged

    def test_verify_flags_wrong_length_even_with_matching_crc(
        self, store_and_ref
    ):
        from repro.exceptions import StoreCorruptionError
        from repro.serve.store import _crc32

        store, _ = store_and_ref
        lm_path = store.path / store.manifest["landmarks"]["file"]
        padded = lm_path.read_bytes() + b"\x00" * 16
        lm_path.write_bytes(padded)
        manifest_path = store.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["landmarks"]["crc32"] = _crc32(padded)
        manifest_path.write_text(json.dumps(manifest))
        reopened = DistStore.open(store.path)
        # the checksum matches the padded bytes; only the length check
        # can catch this, both in verify() and on the read path
        with pytest.raises(StoreCorruptionError) as exc_info:
            reopened.verify()
        assert "landmarks" in exc_info.value.shards
        with pytest.raises(StoreCorruptionError, match="bytes"):
            reopened.landmark_rows()


class TestDamagedFiles:
    """Every damaged store file surfaces as a typed store error."""

    def test_missing_landmark_file_is_a_store_error(self, store_and_ref):
        from repro.exceptions import StoreCorruptionError

        store, _ = store_and_ref
        (store.path / store.manifest["landmarks"]["file"]).unlink()
        with pytest.raises(StoreError, match="landmark") as exc_info:
            store.landmark_rows()
        assert not isinstance(exc_info.value, OSError)
        with pytest.raises(StoreCorruptionError) as exc_info:
            store.verify()
        assert exc_info.value.shards == ("landmarks",)

    @pytest.mark.parametrize("target", [1, "landmarks"])
    def test_truncation_counts_as_corruption(self, store_and_ref, target):
        from repro.exceptions import StoreCorruptionError
        from repro.obs import MetricsRegistry, use_registry

        store, _ = store_and_ref
        entry = (store.manifest["landmarks"] if target == "landmarks"
                 else store.manifest["shards"][target])
        path = store.path / entry["file"]
        path.write_bytes(path.read_bytes()[:-8])
        registry = MetricsRegistry()
        with use_registry(registry), pytest.raises(
            StoreCorruptionError, match="bytes"
        ) as exc_info:
            if target == "landmarks":
                store.landmark_rows(verify=False)
            else:
                store.load_shard(target, verify=False)
        assert exc_info.value.shards == (target,)
        assert registry.counters()["serve.store.corruption_detected"] == 1

    @pytest.mark.parametrize(
        "damage",
        [
            lambda m: [m],
            lambda m: m["shards"][0].pop("crc32"),
            lambda m: m["shards"][0].update(crc32="0x1234"),
            lambda m: m["shards"][0].update(start=0.0),
            lambda m: m["shards"][0].update(nbytes=None),
            lambda m: m["shards"][0].update(file=3),
            lambda m: m["shards"].__setitem__(0, "shard_00000.bin"),
            lambda m: m["landmarks"].pop("ids"),
            lambda m: m["landmarks"].update(crc32=True),
            lambda m: m["landmarks"].pop("file"),
            lambda m: m.update(shards=5),
            lambda m: m.update(n="64"),
        ],
        ids=["list", "no-crc32", "str-crc32", "float-start", "null-nbytes",
             "int-file", "str-entry", "no-landmark-ids", "bool-landmark-crc",
             "no-landmark-file", "int-shards", "str-n"],
    )
    def test_open_rejects_malformed_manifest(self, store_and_ref, damage):
        store, _ = store_and_ref
        manifest_path = store.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        damaged = damage(manifest)
        manifest = damaged if isinstance(damaged, list) else manifest
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="manifest"):
            DistStore.open(store.path)

    @pytest.mark.parametrize(
        "damage, entry",
        [
            (lambda m: m["shards"][0].update(rows=-1), "entry 0"),
            (lambda m: m["shards"][1].update(start=5), "entry 1"),
            (lambda m: m["landmarks"].update(
                ids=[str(v) for v in m["landmarks"]["ids"]]),
             "entry 'landmarks'"),
            (lambda m: m["landmarks"].update(ids=[10**6]),
             "entry 'landmarks'"),
        ],
        ids=["negative-rows", "shifted-start", "str-landmark-ids",
             "landmark-id-past-n"],
    )
    def test_open_rejects_nonsense_geometry(self, store_and_ref, damage,
                                            entry):
        # well-typed but impossible: the shard reads would return a
        # wrongly placed block, or landmark rows for absent vertices
        store, _ = store_and_ref
        manifest_path = store.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        damage(manifest)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=f"manifest {entry}"):
            DistStore.open(store.path)

    def test_open_accepts_manifest_without_nbytes(self, store_and_ref):
        # schema /1 stores carry no nbytes; the raw f8 size is implied
        store, _ = store_and_ref
        manifest_path = store.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["shards"]:
            del entry["nbytes"]
        manifest_path.write_text(json.dumps(manifest))
        DistStore.open(store.path).verify()

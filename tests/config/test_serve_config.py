"""ServeConfig: round-trip property, validation, flat-keyword conversion."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    SERVE_KWARG_MAP,
    EngineConfig,
    ServeConfig,
    StoreConfig,
    load_serve_config,
)
from repro.exceptions import ConfigError
from repro.serve.codecs import codec_names

#: a serve config file as earlier versions saved it: seven groups, every
#: one with non-default values; only ``store`` and ``engine`` were read
SEVEN_GROUP_FILE = {
    "admission": {"max_point": 9, "max_row": 2, "max_topk": 3},
    "cost": {
        "approx_cost": 1e-05, "gather_cost": 2e-05, "load_base": 0.001,
        "load_per_mb": 0.064, "point_cost": 1e-05, "row_cost": 0.0002,
        "topk_cost": 0.0003,
    },
    "engine": {
        "batch_max": 16, "batch_window": 0.002, "cache_shards": 8,
        "num_servers": 3, "verify_loads": False,
    },
    "routing": {
        "hash_seed": 7, "node_budget": 8, "num_nodes": 4,
        "replication": 2, "servers_per_node": 3, "vnodes": 16,
    },
    "store": {
        "codec": "u16q", "epsilon": 0.5, "num_landmarks": 4,
        "shard_rows": 32,
    },
    "telemetry": {"capacity": 128, "sample": 0.5},
    "update": {"prescreen": False, "prune": True, "verify_before": True},
}


@st.composite
def serve_configs(draw):
    """Arbitrary *valid* ServeConfigs."""
    store = StoreConfig(
        codec=draw(st.sampled_from(codec_names())),
        shard_rows=draw(st.integers(min_value=1, max_value=512)),
        num_landmarks=draw(st.integers(min_value=0, max_value=16)),
        epsilon=draw(
            st.none()
            | st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
        ),
    )
    engine = EngineConfig(
        cache_shards=draw(st.integers(min_value=1, max_value=64)),
        verify_loads=draw(st.booleans()),
    )
    return ServeConfig(store=store, engine=engine)


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(serve_configs())
    def test_dict_round_trip_is_identity(self, cfg):
        assert ServeConfig.from_dict(cfg.to_dict()) == cfg

    @settings(max_examples=50, deadline=None)
    @given(serve_configs())
    def test_json_round_trip_is_identity(self, cfg):
        assert ServeConfig.from_json(cfg.to_json()) == cfg
        # and the dict really is plain JSON (no exotic objects)
        json.dumps(cfg.to_dict())

    def test_from_dict_fills_missing_groups_with_defaults(self):
        assert ServeConfig.from_dict({}) == ServeConfig()

    def test_nested_plain_dicts_are_tolerated(self):
        cfg = ServeConfig(store={"codec": "f4"}, engine={"cache_shards": 6})
        assert cfg.store.codec == "f4"
        assert cfg.engine.cache_shards == 6

    def test_load_serve_config_file(self, tmp_path):
        cfg = ServeConfig.from_kwargs(
            shard_rows=32, cache_shards=8, verify_loads=False
        )
        path = tmp_path / "serve.json"
        path.write_text(cfg.to_json())
        assert load_serve_config(str(path)) == cfg


class TestValidation:
    """Every rejection is a ConfigError naming the offending field."""

    @pytest.mark.parametrize(
        ("field", "build"),
        [
            ("store.codec", lambda: StoreConfig(codec="bogus")),
            ("store.shard_rows", lambda: StoreConfig(shard_rows=0)),
            ("store.num_landmarks",
             lambda: StoreConfig(num_landmarks=-1)),
            ("store.epsilon", lambda: StoreConfig(epsilon=-0.5)),
            ("engine.cache_shards",
             lambda: EngineConfig(cache_shards=0)),
            ("engine.verify_loads",
             lambda: EngineConfig(verify_loads=1)),
        ],
    )
    def test_field_named_in_error(self, field, build):
        with pytest.raises(ConfigError) as exc_info:
            build()
        assert exc_info.value.field == field
        assert field in str(exc_info.value)

    def test_from_dict_rejects_unknown_groups_and_fields(self):
        with pytest.raises(ConfigError):
            ServeConfig.from_dict({"gpu": {}})
        with pytest.raises(ConfigError):
            ServeConfig.from_dict({"store": {"bogus_knob": 1}})

    def test_unknown_kwarg_is_config_error(self):
        with pytest.raises(ConfigError, match="wibble"):
            ServeConfig.from_kwargs(wibble=1)

    @pytest.mark.parametrize("hit_cost", [2e-5, None, "junk"])
    def test_from_dict_drops_exactly_the_retired_keys(self, hit_cost):
        data = ServeConfig.from_kwargs(cache_shards=6).to_dict()
        data["cost"] = {"hit_cost": hit_cost, "miss_cost": 1}
        data["engine"]["batch_max"] = hit_cost
        assert ServeConfig.from_dict(data) == ServeConfig.from_kwargs(
            cache_shards=6
        )
        data["engine"]["hit_cost"] = 1  # retired only as the cost group
        with pytest.raises(ConfigError, match="hit_cost"):
            ServeConfig.from_dict(data)
        del data["engine"]["hit_cost"]
        data["store"]["batch_max"] = 1  # retired only under "engine"
        with pytest.raises(ConfigError, match="batch_max"):
            ServeConfig.from_dict(data)

    def test_seven_group_file_loads_to_its_two_read_groups(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(SEVEN_GROUP_FILE))
        cfg = load_serve_config(str(path))
        assert cfg == ServeConfig.from_kwargs(
            codec="u16q", shard_rows=32, num_landmarks=4, epsilon=0.5,
            cache_shards=8, verify_loads=False,
        )
        assert set(cfg.to_dict()) == {"engine", "store"}
        assert len(SERVE_KWARG_MAP) == 6

    def test_hit_cost_is_not_a_keyword(self):
        with pytest.raises(ConfigError) as exc_info:
            ServeConfig.from_kwargs(hit_cost=2e-5)
        assert exc_info.value.field == "hit_cost"


class TestShim:
    """Flat serving keywords <-> ServeConfig: the conversions the file
    boundary (CLI ``--config``) relies on."""

    def test_none_plus_kwargs_builds_from_kwargs(self):
        # no file: the defaults with the given flags on top
        cfg = ServeConfig().with_overrides(shard_rows=32)
        assert cfg == ServeConfig.from_kwargs(shard_rows=32)

    def test_mapping_accepted(self):
        cfg = ServeConfig.from_dict({"store": {"codec": "u16q"}})
        assert cfg.store.codec == "u16q"
        assert ServeConfig(store={"codec": "u16q"}) == cfg

    def test_bad_type_is_config_error(self):
        with pytest.raises(ConfigError) as exc_info:
            ServeConfig.from_dict(42)
        assert exc_info.value.field == "serve_config"

    def test_with_overrides(self):
        cfg = ServeConfig()
        bumped = cfg.with_overrides(cache_shards=9, codec="f4")
        assert bumped.engine.cache_shards == 9
        assert bumped.store.codec == "f4"
        # original untouched (frozen)
        assert cfg.engine.cache_shards == 4

    @settings(max_examples=40, deadline=None)
    @given(serve_configs())
    def test_kwargs_round_trip_is_identity(self, cfg):
        assert ServeConfig.from_kwargs(**cfg.to_kwargs()) == cfg


class TestEntryPointParity:
    """A ServeConfig handed to the serving entry points as flat keywords
    behaves exactly like the same keywords spelled out."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory, small_weighted):
        from repro.serve import solve_to_store

        cfg = ServeConfig.from_kwargs(shard_rows=16, num_landmarks=4)
        return solve_to_store(
            small_weighted,
            tmp_path_factory.mktemp("cfgstore") / "s",
            **cfg.store.to_dict(),
        )

    def test_store_build_matches_flat_kwargs(
        self, tmp_path, small_weighted, store
    ):
        from repro.serve import solve_to_store

        flat = solve_to_store(
            small_weighted, tmp_path / "flat", shard_rows=16,
            num_landmarks=4,
        )
        assert flat.num_shards == store.num_shards
        for i in range(store.num_shards):
            assert flat.load_shard(i).tobytes() == \
                store.load_shard(i).tobytes()
        assert flat.manifest == store.manifest

    def test_engine_honours_config(self, store):
        from repro.serve import QueryEngine

        cfg = ServeConfig.from_kwargs(cache_shards=2)
        engine = QueryEngine(
            store,
            cache_shards=cfg.engine.cache_shards,
            verify_loads=cfg.engine.verify_loads,
            epsilon=cfg.store.epsilon,
        )
        assert engine.cache_shards == 2
        flat = QueryEngine(store, cache_shards=2)
        assert engine.dist(0, 7) == flat.dist(0, 7)

    def test_config_objects_are_not_a_call_form(
        self, store, tmp_path, small_weighted
    ):
        from repro.serve import (
            QueryEngine,
            ServeFrontend,
            replay_threaded,
            replay_virtual,
            solve_to_store,
        )

        cfg = ServeConfig()
        # solve_to_store forwards unknown keywords to the solver, which
        # names them; the others reject them at the signature
        for name in ("serve_config", "store_config", "config"):
            with pytest.raises(ConfigError) as exc_info:
                solve_to_store(small_weighted, tmp_path / name,
                               **{name: cfg})
            assert exc_info.value.field == name
        engine = QueryEngine(store)
        for call in (
            lambda: QueryEngine(store, serve_config=cfg),
            lambda: ServeFrontend(engine, serve_config=cfg),
            lambda: replay_virtual([], n=4, shard_rows=2, serve_config=cfg),
            lambda: replay_threaded([], ServeFrontend(engine),
                                    serve_config=cfg),
            lambda: replay_threaded([], store=store),
        ):
            with pytest.raises(TypeError):
                call()

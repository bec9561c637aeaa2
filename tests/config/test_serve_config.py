"""ServeConfig: round-trip property, validation, flat-keyword conversion."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    AdmissionConfig,
    EngineConfig,
    RoutingConfig,
    ServeConfig,
    ServeCostConfig,
    StoreConfig,
    TelemetryConfig,
    UpdateConfig,
    load_serve_config,
)
from repro.exceptions import ConfigError
from repro.serve.codecs import codec_names

_pos_float = st.floats(
    min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def serve_configs(draw):
    """Arbitrary *valid* ServeConfigs (cross-field constraint included)."""
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
        num_servers=draw(st.integers(min_value=1, max_value=8)),
        batch_window=draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        ),
        batch_max=draw(st.integers(min_value=1, max_value=128)),
    )
    admission = AdmissionConfig(
        max_point=draw(st.integers(min_value=1, max_value=256)),
        max_row=draw(st.integers(min_value=1, max_value=32)),
        max_topk=draw(st.integers(min_value=1, max_value=32)),
    )
    cost = ServeCostConfig(
        load_base=draw(_pos_float),
        point_cost=draw(_pos_float),
    )
    telemetry = TelemetryConfig(
        capacity=draw(st.integers(min_value=1, max_value=8192)),
        sample=draw(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
        ),
    )
    update = UpdateConfig(
        prescreen=draw(st.booleans()),
        verify_before=draw(st.booleans()),
        prune=draw(st.booleans()),
    )
    num_nodes = draw(st.integers(min_value=1, max_value=8))
    routing = RoutingConfig(
        num_nodes=num_nodes,
        replication=draw(st.integers(min_value=1, max_value=num_nodes)),
        vnodes=draw(st.integers(min_value=1, max_value=128)),
        hash_seed=draw(st.integers(min_value=0, max_value=2**31)),
        node_budget=draw(st.integers(min_value=1, max_value=128)),
        servers_per_node=draw(st.integers(min_value=1, max_value=8)),
    )
    return ServeConfig(
        store=store, engine=engine, admission=admission, cost=cost,
        telemetry=telemetry, update=update, routing=routing,
    )


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
        cfg = ServeConfig(store={"codec": "f4"}, routing={"num_nodes": 4})
        assert cfg.store.codec == "f4"
        assert cfg.routing.num_nodes == 4

    def test_load_serve_config_file(self, tmp_path):
        cfg = ServeConfig.from_kwargs(
            shard_rows=32, cache_shards=8, num_nodes=4, replication=2
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
            ("engine.batch_window",
             lambda: EngineConfig(batch_window=-1.0)),
            ("admission.max_point",
             lambda: AdmissionConfig(max_point=0)),
            ("cost.load_base", lambda: ServeCostConfig(load_base=-1.0)),
            ("telemetry.capacity",
             lambda: TelemetryConfig(capacity=0)),
            ("update.prune", lambda: UpdateConfig(prune="yes")),
            ("routing.num_nodes", lambda: RoutingConfig(num_nodes=0)),
            ("routing.hash_seed", lambda: RoutingConfig(hash_seed=-1)),
            ("routing.replication",
             lambda: RoutingConfig(num_nodes=2, replication=3)),
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
        data = ServeConfig.from_kwargs(point_cost=1e-5).to_dict()
        data["cost"]["hit_cost"] = hit_cost
        assert ServeConfig.from_dict(data) == ServeConfig.from_kwargs(
            point_cost=1e-5
        )
        data["cost"]["miss_cost"] = 1
        with pytest.raises(ConfigError, match="miss_cost"):
            ServeConfig.from_dict(data)
        del data["cost"]["miss_cost"]
        data["engine"]["hit_cost"] = 1  # retired only under "cost"
        with pytest.raises(ConfigError, match="hit_cost"):
            ServeConfig.from_dict(data)

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
        bumped = cfg.with_overrides(num_nodes=4, replication=2)
        assert bumped.routing.num_nodes == 4
        assert bumped.routing.replication == 2
        # original untouched (frozen)
        assert cfg.routing.num_nodes == 1

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

    def test_frontend_honours_admission(self, store):
        from repro.serve import QueryEngine, ServeFrontend

        cfg = ServeConfig.from_kwargs(max_point=3)
        fe = ServeFrontend(
            QueryEngine(store), policy=cfg.admission.to_policy()
        )
        assert fe.policy.max_point == 3

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

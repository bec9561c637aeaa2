"""SolverConfig: round-trip property, validation, flat-keyword conversion."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    AlgorithmConfig,
    FaultConfig,
    ObsConfig,
    ParallelConfig,
    SolverConfig,
    load_config,
)
from repro.core.runner import ALGORITHMS, solve_apsp
from repro.exceptions import (
    AlgorithmError,
    BackendError,
    ConfigError,
    ScheduleError,
)
from repro.graphs.degree import DegreeKind
from repro.order import ORDERINGS
from repro.simx.machine import MachineSpec

SERIAL_ALGOS = [n for n, s in ALGORITHMS.items() if not s.parallel]
PARALLEL_ALGOS = [n for n, s in ALGORITHMS.items() if s.parallel]
DEGREE_KINDS = [k.value for k in DegreeKind]


@st.composite
def solver_configs(draw):
    """Arbitrary *valid* SolverConfigs (cross-group constraint included)."""
    name = draw(st.sampled_from(sorted(ALGORITHMS)))
    if ALGORITHMS[name].parallel:
        backend = draw(
            st.sampled_from(["serial", "threads", "process", "sim"])
        )
    else:
        backend = draw(st.sampled_from(["serial", "sim"]))
    algorithm = AlgorithmConfig(
        name=name,
        ordering=draw(st.none() | st.sampled_from(ORDERINGS)),
        schedule=draw(
            st.none()
            | st.sampled_from(["block", "static-cyclic", "dynamic"])
        ),
        queue=draw(st.sampled_from(["fifo", "heap"])),
        ratio=draw(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
        ),
        degree_kind=draw(st.sampled_from(DEGREE_KINDS)),
        use_flags=draw(st.booleans()),
    )
    parallel = ParallelConfig(
        backend=backend,
        num_threads=draw(st.integers(min_value=1, max_value=16)),
        chunk=draw(st.integers(min_value=1, max_value=8)),
    )
    faults = FaultConfig(
        on_worker_death=draw(st.sampled_from(["retry", "raise"])),
        timeout=draw(
            st.none()
            | st.floats(min_value=0.1, max_value=100.0, allow_nan=False)
        ),
        max_retries=draw(st.integers(min_value=0, max_value=5)),
    )
    obs = ObsConfig(trace=draw(st.booleans()))
    return SolverConfig(
        algorithm=algorithm, parallel=parallel, faults=faults, obs=obs,
    )


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(solver_configs())
    def test_dict_round_trip_is_identity(self, cfg):
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg

    @settings(max_examples=100, deadline=None)
    @given(solver_configs())
    def test_kwargs_round_trip_is_identity(self, cfg):
        assert SolverConfig.from_kwargs(**cfg.to_kwargs()) == cfg

    @settings(max_examples=50, deadline=None)
    @given(solver_configs())
    def test_json_round_trip_is_identity(self, cfg):
        assert SolverConfig.from_json(cfg.to_json()) == cfg
        # and the dict really is plain JSON (no exotic objects)
        json.dumps(cfg.to_dict())

    def test_machine_spec_round_trips(self):
        cfg = SolverConfig(
            parallel=ParallelConfig(
                backend="sim",
                num_threads=4,
                machine=MachineSpec(name="toy", num_cores=4),
            )
        )
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg

    def test_fault_plan_round_trips(self):
        from repro.faults import parse_fault_plan

        plan = parse_fault_plan("kill:round=0,worker=1")
        cfg = SolverConfig(faults=FaultConfig(plan=plan,
                                              on_worker_death="retry"))
        assert SolverConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_fills_missing_groups_with_defaults(self):
        assert SolverConfig.from_dict({}) == SolverConfig()

    def test_load_config_file(self, tmp_path):
        cfg = SolverConfig(parallel=ParallelConfig(backend="sim",
                                                   num_threads=8))
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        assert load_config(str(path)) == cfg


class TestValidation:
    """Every rejection is a ConfigError naming the offending field."""

    @pytest.mark.parametrize(
        ("field", "build"),
        [
            ("algorithm.name", lambda: AlgorithmConfig(name="bogus")),
            ("algorithm.ordering",
             lambda: AlgorithmConfig(ordering="bogus")),
            ("algorithm.schedule",
             lambda: AlgorithmConfig(schedule="bogus")),
            ("algorithm.queue", lambda: AlgorithmConfig(queue="lifo")),
            ("algorithm.ratio", lambda: AlgorithmConfig(ratio=0.0)),
            ("algorithm.ratio", lambda: AlgorithmConfig(ratio=1.5)),
            ("algorithm.use_flags",
             lambda: AlgorithmConfig(use_flags=1)),
            ("parallel.backend", lambda: ParallelConfig(backend="gpu")),
            ("parallel.num_threads",
             lambda: ParallelConfig(num_threads=0)),
            ("parallel.chunk", lambda: ParallelConfig(chunk=0)),
            ("parallel.machine", lambda: ParallelConfig(machine="m5")),
            ("faults.on_worker_death",
             lambda: FaultConfig(on_worker_death="shrug")),
            ("faults.timeout", lambda: FaultConfig(timeout=0)),
            ("faults.max_retries", lambda: FaultConfig(max_retries=-1)),
            ("obs.trace", lambda: ObsConfig(trace="yes")),
        ],
    )
    def test_field_named_in_error(self, field, build):
        with pytest.raises(ConfigError) as exc_info:
            build()
        assert exc_info.value.field == field
        assert field in str(exc_info.value)

    def test_sequential_algorithm_rejects_parallel_backend(self):
        with pytest.raises(ConfigError) as exc_info:
            SolverConfig(
                algorithm=AlgorithmConfig(name="seq-basic"),
                parallel=ParallelConfig(backend="threads", num_threads=2),
            )
        assert exc_info.value.field == "parallel.backend"

    def test_from_dict_rejects_unknown_groups_and_fields(self):
        with pytest.raises(ConfigError):
            SolverConfig.from_dict({"gpu": {}})
        with pytest.raises(ConfigError):
            SolverConfig.from_dict({"algorithm": {"bogus_knob": 1}})

    @pytest.mark.parametrize(
        "batch", [{"block_size": 64, "kernel": "blocked"}, None, "junk"]
    )
    @pytest.mark.parametrize("delta", [None, 0.5, "auto"])
    def test_from_dict_drops_exactly_the_retired_keys(self, batch, delta):
        data = SolverConfig.from_kwargs(ratio=0.5).to_dict()
        data["batch"] = batch
        data["algorithm"]["delta"] = delta
        assert SolverConfig.from_dict(data) == SolverConfig.from_kwargs(
            ratio=0.5
        )
        data["algorithm"]["gamma"] = 1
        with pytest.raises(ConfigError, match="gamma"):
            SolverConfig.from_dict(data)
        del data["algorithm"]["gamma"]
        data["parallel"]["delta"] = 1  # retired only under "algorithm"
        with pytest.raises(ConfigError, match="delta"):
            SolverConfig.from_dict(data)

    def test_retired_keywords_are_rejected(self, small_weighted):
        for key in ("block_size", "kernel", "delta"):
            with pytest.raises(ConfigError) as exc_info:
                solve_apsp(small_weighted, **{key: None})
            assert exc_info.value.field == key

    def test_legacy_exception_types_still_catch(self):
        """ConfigError subclasses the pre-redesign exception types, so
        code written against AlgorithmError/ScheduleError/BackendError
        keeps working."""
        for legacy, build in [
            (AlgorithmError, lambda: AlgorithmConfig(name="bogus")),
            (ScheduleError, lambda: AlgorithmConfig(schedule="bogus")),
            (BackendError, lambda: ParallelConfig(backend="gpu")),
        ]:
            with pytest.raises(legacy):
                build()


class TestShim:
    """Flat keywords <-> SolverConfig: the conversions the file boundary
    (CLI ``--config``, store manifests) relies on."""

    def test_config_accepts_plain_mapping(self, small_weighted):
        cfg = SolverConfig.from_dict({"algorithm": {"use_flags": False}})
        result = solve_apsp(small_weighted, **cfg.to_kwargs())
        ref = solve_apsp(small_weighted, use_flags=False)
        import numpy as np

        assert np.array_equal(result.dist, ref.dist)

    def test_unknown_kwarg_is_config_error(self, small_weighted):
        with pytest.raises(ConfigError, match="wibble"):
            SolverConfig.from_kwargs(wibble=1)
        with pytest.raises(ConfigError) as exc_info:
            solve_apsp(small_weighted, wibble=1)
        assert exc_info.value.field == "wibble"

    def test_with_overrides(self):
        cfg = SolverConfig()
        bumped = cfg.with_overrides(num_threads=4, backend="sim")
        assert bumped.parallel.num_threads == 4
        assert bumped.parallel.backend == "sim"
        # original untouched (frozen)
        assert cfg.parallel.num_threads == 1

    def test_config_objects_are_not_a_call_form(self, small_weighted):
        from repro.core.runner import solve_apsp_shards
        from repro.dist import CLUSTER_FAST, solve_apsp_cluster

        cfg = SolverConfig()
        calls = {
            "solve_apsp": lambda: solve_apsp(small_weighted, config=cfg),
            "solve_apsp_shards": lambda: next(
                solve_apsp_shards(small_weighted, shard_rows=8, config=cfg)
            ),
            "solve_apsp_cluster": lambda: solve_apsp_cluster(
                small_weighted, CLUSTER_FAST, config=cfg
            ),
        }
        for name, call in calls.items():
            with pytest.raises(ConfigError) as exc_info:
                call()
            assert exc_info.value.field == "config", name

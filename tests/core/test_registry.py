"""The declarative solver registry (repro.core.registry)."""

import pytest

from repro.core import ALGORITHMS, solve_apsp
from repro.core.registry import (
    ShardHooks,
    SolverSpec,
    canonical_solver_name,
    get_solver,
    register_solver,
    solver_names,
)
from repro.exceptions import ConfigError
from repro.types import Schedule


def _spec(name, **overrides):
    base = dict(
        name=name,
        ordering="none",
        schedule=Schedule.DYNAMIC,
        parallel=True,
        description="test solver",
        solve=lambda graph, cfg, spec: None,
        shard_hooks=lambda graph, cfg: ShardHooks(graph),
    )
    base.update(overrides)
    return SolverSpec(**base)


class TestCanonicalNames:
    def test_underscores_become_hyphens(self):
        assert canonical_solver_name("seq_basic") == "seq-basic"

    def test_case_and_whitespace_folded(self):
        assert canonical_solver_name("  Johnson ") == "johnson"

    def test_lookup_accepts_aliases(self):
        assert get_solver("seq_basic") is get_solver("seq-basic")
        assert get_solver("JOHNSON") is ALGORITHMS["johnson"]


class TestRegistration:
    def test_algorithms_is_the_live_registry(self):
        # the historical name must alias the registry dict, not a copy
        from repro.core.registry import _REGISTRY

        assert ALGORITHMS is _REGISTRY
        assert set(solver_names()) == set(ALGORITHMS)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_solver(_spec("parapsp"))

    def test_replace_allows_override_and_restore(self):
        original = ALGORITHMS["parapsp"]
        try:
            swapped = register_solver(
                _spec("parapsp", description="instrumented"), replace=True
            )
            assert ALGORITHMS["parapsp"] is swapped
        finally:
            register_solver(original, replace=True)
        assert ALGORITHMS["parapsp"] is original

    def test_non_canonical_name_rejected(self):
        with pytest.raises(ConfigError, match="not canonical"):
            register_solver(_spec("Par_APSP"))

    def test_missing_solve_rejected(self):
        with pytest.raises(ConfigError, match="no solve callable"):
            register_solver(_spec("no-solve", solve=None))

    def test_missing_shard_hooks_rejected(self):
        with pytest.raises(ConfigError, match="no shard_hooks callable"):
            register_solver(_spec("no-hooks", shard_hooks=None))

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            register_solver("parapsp")

    def test_unknown_lookup_lists_registered(self):
        with pytest.raises(ConfigError, match="registered solvers"):
            get_solver("bogus")


class TestCapabilities:
    def test_capabilities_dict_mirrors_flags(self):
        spec = ALGORITHMS["johnson"]
        assert spec.capabilities() == {"negative_weights": True}
        assert spec.parallel

    def test_sweep_family_flags(self):
        for name in ("seq-basic", "seq-opt", "paralg1", "paralg2",
                     "parapsp"):
            spec = ALGORITHMS[name]
            assert spec.capabilities() == {"negative_weights": False}
            assert spec.parallel == name.startswith("par")

    def test_every_registered_solver_has_callables(self):
        for name, spec in ALGORITHMS.items():
            assert spec.solve is not None, name
            assert spec.shard_hooks is not None, name


class TestDispatch:
    def test_solve_apsp_accepts_alias_spelling(self, toy_graph):
        r = solve_apsp(toy_graph, algorithm="seq_basic")
        assert r.algorithm == "seq-basic"

    def test_registered_stub_is_dispatchable(self, toy_graph):
        calls = []

        def fake_solve(graph, cfg, spec):
            calls.append(spec.name)
            return solve_apsp(graph, algorithm="seq-basic")

        try:
            register_solver(_spec("stub-solver", solve=fake_solve))
            solve_apsp(toy_graph, algorithm="stub-solver")
            assert calls == ["stub-solver"]
        finally:
            from repro.core.registry import _REGISTRY

            _REGISTRY.pop("stub-solver", None)


class TestShardHooks:
    def test_shard_hooks_fields(self, toy_graph):
        hooks = ShardHooks(toy_graph)
        assert hooks.graph is toy_graph
        assert hooks.finalize is None

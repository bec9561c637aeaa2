"""Cross-solver distance parity: the registry's correctness contract.

Every registered solver claims to compute the *same* APSP function.  On
graphs whose weights are dyadic rationals (denominator 8, bounded
magnitude) every intermediate path sum is exactly representable in
float64, so summation order cannot perturb the result — which turns the
parity claim into a *bitwise* assertion across solvers as different as
flag-reuse sweeps and Johnson's reweighting.

On negative-weight graphs the only capable solver, ``johnson``, is
checked against the O(n·m)-per-source Bellman–Ford oracle; negative
weights are synthesised from potentials (``attach_negative_weights``),
which provably cannot create a negative cycle, and the explicit
negative-cycle fixture asserts the typed failure path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ALGORITHMS, solve_apsp
from repro.core.johnson import bellman_ford_apsp
from repro.exceptions import NegativeCycleError, NegativeWeightError
from repro.graphs import (
    attach_negative_weights,
    from_arc_arrays,
    negative_cycle_graph,
)

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: the non-negative-capable solvers, snapshotted from the registry
ALL_SOLVERS = sorted(ALGORITHMS)


@st.composite
def dyadic_graphs(draw, max_n=20, directed=None):
    """Random graphs whose weights are multiples of 1/8 in [1/8, 50]."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    if directed is None:
        directed = draw(st.booleans())
    max_arcs = n * (n - 1) // (1 if directed else 2)
    m = draw(st.integers(min_value=0, max_value=min(3 * n, max_arcs)))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda p: p[0] != p[1]),
            min_size=m,
            max_size=m,
        )
    )
    eighths = draw(
        st.lists(
            st.integers(min_value=1, max_value=400),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    src = np.asarray([p[0] for p in pairs], dtype=np.int64)
    dst = np.asarray([p[1] for p in pairs], dtype=np.int64)
    weights = np.asarray(eighths, dtype=np.float64) / 8.0
    return from_arc_arrays(
        src, dst, weights, num_vertices=n, directed=directed
    )


class TestBitwiseParity:
    @given(graph=dyadic_graphs())
    @settings(**SETTINGS)
    def test_all_registered_solvers_agree_bitwise(self, graph):
        reference = solve_apsp(graph, algorithm="parapsp").dist
        for name in ALL_SOLVERS:
            if name == "parapsp":
                continue
            dist = solve_apsp(graph, algorithm=name).dist
            assert np.array_equal(dist, reference), (
                f"{name} disagrees with parapsp"
            )


class TestNegativeWeightParity:
    @given(
        graph=dyadic_graphs(directed=True),
        seed=st.integers(0, 2**16),
        potential_range=st.integers(1, 8),
    )
    @settings(**SETTINGS)
    def test_johnson_matches_bellman_ford_oracle(
        self, graph, seed, potential_range
    ):
        negative = attach_negative_weights(
            graph, potential_range=potential_range, seed=seed
        )
        result = solve_apsp(negative, algorithm="johnson")
        oracle = bellman_ford_apsp(negative)
        # dyadic base weights + integer potentials keep every sum exact,
        # so even two completely different algorithms agree bitwise
        assert np.array_equal(result.dist, oracle)

    @given(graph=dyadic_graphs(directed=True), seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_incapable_solvers_reject_negative_weights(self, graph, seed):
        negative = attach_negative_weights(graph, seed=seed)
        if not negative.has_negative_weights:
            return  # potentials may cancel; nothing to gate
        for name in ALL_SOLVERS:
            if ALGORITHMS[name].negative_weights:
                continue
            with pytest.raises(NegativeWeightError):
                solve_apsp(negative, algorithm=name)

    def test_negative_cycle_is_a_typed_error(self):
        with pytest.raises(NegativeCycleError) as info:
            solve_apsp(negative_cycle_graph(), algorithm="johnson")
        assert info.value.witness is not None

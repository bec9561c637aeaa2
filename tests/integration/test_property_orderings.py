"""Property-based tests on the ordering procedures and the sorts."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.order import (
    ORDERINGS,
    check_ordering,
    compute_order,
    exact_bucket_order,
    find_bins,
    is_permutation,
    multilists_order,
    par_buckets_order,
    par_max_order,
    selection_order,
    simulate_multilists,
    simulate_par_buckets,
    simulate_par_max,
)
from repro.simx import MACHINE_I
from repro.sort import check_stable_argsort, counting_argsort, multilists_argsort

degree_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(min_value=1, max_value=120),
    elements=st.integers(min_value=0, max_value=300),
)

SETTINGS = dict(max_examples=40, deadline=None)


class TestOrderingProperties:
    @given(degrees=degree_arrays)
    @settings(**SETTINGS)
    def test_every_method_yields_permutation(self, degrees):
        for name in ORDERINGS:
            result = compute_order(
                name, degrees, num_threads=3, backend="serial"
            )
            assert is_permutation(result.order, degrees.size)

    @given(degrees=degree_arrays)
    @settings(**SETTINGS)
    def test_exact_methods_descending(self, degrees):
        for name in ("selection", "exact-buckets", "parmax", "multilists"):
            result = compute_order(
                name, degrees, num_threads=3, backend="serial"
            )
            seq = degrees[result.order]
            assert np.all(np.diff(seq) <= 0)

    @given(degrees=degree_arrays)
    @settings(**SETTINGS)
    def test_exact_methods_agree_on_profile(self, degrees):
        ref = degrees[exact_bucket_order(degrees).order]
        for result in (
            selection_order(degrees),
            par_max_order(degrees, num_threads=2, backend="serial"),
            multilists_order(degrees, num_threads=2, backend="serial"),
        ):
            assert np.array_equal(degrees[result.order], ref)

    @given(degrees=degree_arrays, threads=st.integers(1, 8))
    @settings(**SETTINGS)
    def test_multilists_thread_invariant(self, degrees, threads):
        a = multilists_order(degrees, num_threads=threads, backend="serial")
        b = exact_bucket_order(degrees)
        assert np.array_equal(a.order, b.order)

    @given(degrees=degree_arrays)
    @settings(**SETTINGS)
    def test_approx_buckets_non_increasing_bins(self, degrees):
        result = compute_order("approx-buckets", degrees)
        lo, hi = int(degrees.min()), int(degrees.max())
        bins = find_bins(degrees[result.order], hi, lo)
        assert np.all(np.diff(bins) <= 0)

    @given(
        degrees=degree_arrays,
        threshold=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(**SETTINGS)
    def test_parmax_any_threshold_exact(self, degrees, threshold):
        result = par_max_order(
            degrees, threshold=threshold, backend="serial"
        )
        check_ordering(result, degrees)

    @given(
        degrees=degree_arrays,
        ratio=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(**SETTINGS)
    def test_multilists_any_parratio_exact(self, degrees, ratio):
        result = multilists_order(
            degrees, par_ratio=ratio, num_threads=4, backend="serial"
        )
        assert np.array_equal(result.order, exact_bucket_order(degrees).order)


keys_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(min_value=0, max_value=200),
    elements=st.integers(min_value=0, max_value=64),
)


class TestSortProperties:
    @given(keys=keys_arrays, descending=st.booleans())
    @settings(**SETTINGS)
    def test_counting_argsort_stable(self, keys, descending):
        perm = counting_argsort(keys, descending=descending)
        check_stable_argsort(perm, keys, descending=descending)

    @given(
        keys=keys_arrays,
        descending=st.booleans(),
        threads=st.integers(1, 8),
    )
    @settings(**SETTINGS)
    def test_parallel_equals_sequential(self, keys, descending, threads):
        seq = counting_argsort(keys, descending=descending)
        par = multilists_argsort(
            keys,
            descending=descending,
            num_threads=threads,
            backend="serial",
        )
        assert np.array_equal(seq, par)

    @given(keys=keys_arrays)
    @settings(**SETTINGS)
    def test_counting_matches_numpy(self, keys):
        assert np.array_equal(
            counting_argsort(keys), np.argsort(keys, kind="stable")
        )


class TestOrderingParity:
    """Every bucket sort in :mod:`repro.order` and :mod:`repro.sort` is
    one stable counting sort: each path equals
    :func:`~repro.sort.counting_argsort` bit for bit."""

    @given(degrees=degree_arrays)
    @example(degrees=np.array([7]))
    @example(degrees=np.full(40, 5))
    @example(degrees=np.zeros(33, dtype=np.int64))
    @example(degrees=np.array([1] * 60 + [5000] + [2] * 9))
    @settings(**SETTINGS)
    def test_every_path_is_the_counting_sort(self, degrees):
        ref = counting_argsort(degrees, descending=True)
        # the locked ParMax/ParBuckets bodies keep their arrival order
        # within a bucket: the reference's only on one lane
        exact = [
            exact_bucket_order(degrees),
            par_max_order(degrees, num_threads=1, backend="serial"),
            simulate_multilists(degrees, MACHINE_I, num_threads=4),
            simulate_par_max(degrees, MACHINE_I, num_threads=4),
        ]
        for backend in ("serial", "threads"):
            exact += [
                multilists_order(degrees, num_threads=t, backend=backend)
                for t in (1, 2, 3, 7)
            ]
        for result in exact:
            assert result.exact
            assert np.array_equal(result.order, ref), result.method
        assert np.array_equal(
            multilists_argsort(degrees, descending=True, num_threads=3), ref
        )

        lo, hi = int(degrees.min()), int(degrees.max())
        bins = find_bins(degrees, hi, lo)
        by_bin = counting_argsort(bins, descending=True)
        # a bin that holds two degrees makes the order approximate
        single = all(len(set(degrees[bins == b])) == 1 for b in set(bins))
        for result in (
            compute_order("approx-buckets", degrees),
            par_buckets_order(degrees, num_threads=1, backend="serial"),
            simulate_par_buckets(degrees, MACHINE_I, num_threads=4),
        ):
            assert result.exact == single, result.method
            assert np.array_equal(result.order, by_bin), result.method

        up = counting_argsort(degrees)
        for max_key in (None, hi, hi + 17):
            assert np.array_equal(
                multilists_argsort(degrees, num_threads=3, max_key=max_key),
                up,
            )

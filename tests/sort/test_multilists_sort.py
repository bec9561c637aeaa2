"""Parallel MultiLists sort vs the sequential reference."""

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.sort import (
    check_stable_argsort,
    counting_argsort,
    multilists_argsort,
    multilists_sort,
)


class TestEquivalence:
    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("descending", [False, True])
    def test_matches_counting_sort_exactly(self, threads, descending):
        keys = np.random.default_rng(threads).integers(0, 64, size=777)
        seq = counting_argsort(keys, descending=descending)
        par = multilists_argsort(
            keys, descending=descending, num_threads=threads
        )
        assert np.array_equal(seq, par)

    def test_stability_preserved_in_parallel(self):
        keys = np.array([5] * 50 + [3] * 50)
        perm = multilists_argsort(keys, descending=True, num_threads=4)
        check_stable_argsort(perm, keys, descending=True)

    def test_sorted_values(self):
        keys = np.array([9, 1, 5])
        assert multilists_sort(keys).tolist() == [1, 5, 9]

    def test_serial_backend(self):
        keys = np.random.default_rng(9).integers(0, 32, size=100)
        a = multilists_argsort(keys, num_threads=4, backend="serial")
        b = counting_argsort(keys)
        assert np.array_equal(a, b)


class TestEdgeCases:
    def test_empty(self):
        assert multilists_argsort(np.array([], dtype=np.int64)).size == 0

    def test_more_threads_than_items(self):
        keys = np.array([2, 1])
        perm = multilists_argsort(keys, num_threads=16)
        assert keys[perm].tolist() == [1, 2]

    def test_negative_keys_rejected(self):
        with pytest.raises(ReproError):
            multilists_argsort(np.array([-1]))

    def test_float_keys_rejected(self):
        # the counting-sort reference's key contract, not a silent cast
        with pytest.raises(ReproError, match="integer keys"):
            multilists_argsort(np.array([1.5, 0.7, 2.0]))

    def test_max_key_violation(self):
        with pytest.raises(ReproError, match="exceeds"):
            multilists_argsort(np.array([99]), max_key=10)

    def test_single_key_value(self):
        keys = np.zeros(20, dtype=np.int64)
        assert multilists_argsort(keys, num_threads=3).tolist() == list(
            range(20)
        )


"""APSP state and result containers."""

import numpy as np
import pytest

from repro.core import APSPResult, new_state
from repro.exceptions import AlgorithmError
from repro.types import INF, PhaseTimes


class TestState:
    def test_initialisation_matches_algorithm2(self):
        state = new_state(4)
        assert np.all(np.diag(state.dist) == 0.0)
        off = ~np.eye(4, dtype=bool)
        assert np.all(np.isinf(state.dist[off]))
        assert state.flag.sum() == 0
        assert state.n == 4

    def test_reset(self):
        state = new_state(3)
        state.dist[0, 1] = 5.0
        state.flag[2] = 1
        state.reset()
        assert np.isinf(state.dist[0, 1])
        assert state.flag[2] == 0

    def test_negative_size(self):
        with pytest.raises(AlgorithmError):
            new_state(-1)

    def test_zero_size(self):
        state = new_state(0)
        assert state.n == 0


class TestResult:
    def test_summary_fields(self):
        r = APSPResult(
            algorithm="parapsp",
            dist=np.zeros((2, 2)),
            num_threads=4,
            backend="sim",
            phase_times=PhaseTimes(ordering=1.0, dijkstra=9.0),
        )
        s = r.summary()
        assert s["total_time"] == 10.0
        assert s["threads"] == 4.0
        assert r.n == 2

    def test_reachable_pairs(self):
        dist = np.array([[0.0, INF], [1.0, 0.0]])
        r = APSPResult(
            algorithm="x", dist=dist, num_threads=1, backend="serial"
        )
        assert r.reachable_pairs() == 3


class TestPhaseTimes:
    def test_total(self):
        pt = PhaseTimes(ordering=1.0, dijkstra=2.0, other=0.5)
        assert pt.total == 3.5
        assert pt.as_tuple() == (1.0, 2.0, 0.5)

"""Saved-config parity: a run rebuilt from its JSON file is the same run.

A :class:`SolverConfig` is the file format of a run.  Its contract is
that saving a flat-kwargs call as JSON, loading it back and calling
``solve_apsp(g, **cfg.to_kwargs())`` repeats the run exactly — not
merely numerically close: identical ``dist`` bytes, identical
``OpCounts`` and (on SIM) identical virtual time — across backends and
schedules.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SolverConfig
from repro.core.runner import solve_apsp


def _rebuilt(kwargs):
    """The flat kwargs of ``kwargs`` after a round trip through JSON."""
    text = SolverConfig.from_kwargs(**kwargs).to_json()
    return SolverConfig.from_json(text).to_kwargs()


def _assert_same_run(a, b):
    assert a.dist.tobytes() == b.dist.tobytes()
    assert a.ops == b.ops
    assert a.algorithm == b.algorithm
    if a.backend == "sim":
        # virtual time is part of the result on SIM; it must agree too
        assert a.total_time == b.total_time

COMBOS = [
    pytest.param(kwargs, id=label)
    for label, kwargs in [
        ("serial-default", {}),
        ("serial-seq-opt", {"algorithm": "seq-opt", "ratio": 0.5}),
        ("serial-heap-noflags", {"queue": "heap", "use_flags": False}),
        # one worker, heap queue
        ("serial-batched", {"num_threads": 1, "queue": "heap"}),
        (
            "sim-8t",
            {"backend": "sim", "num_threads": 8, "trace": True},
        ),
        # flags off on the real-concurrency backends: with flags on,
        # which finalised rows get merged depends on worker timing, so
        # runs are not bit-deterministic and parity cannot be asserted
        (
            "threads-dynamic",
            {"backend": "threads", "num_threads": 4,
             "schedule": "dynamic", "use_flags": False},
        ),
        (
            "threads-static-cyclic",
            {"backend": "threads", "num_threads": 4,
             "schedule": "static-cyclic", "chunk": 2,
             "use_flags": False},
        ),
        (
            "process-block",
            {"backend": "process", "num_threads": 2, "schedule": "block",
             "use_flags": False},
        ),
    ]
]


@pytest.mark.parametrize("kwargs", COMBOS)
def test_config_equals_kwargs_bitwise(small_weighted, kwargs):
    _assert_same_run(
        solve_apsp(small_weighted, **kwargs),
        solve_apsp(small_weighted, **_rebuilt(kwargs)),
    )


@st.composite
def deterministic_kwargs(draw):
    """Flat kwargs drawn from the solver's bit-deterministic envelope."""
    out = {
        "algorithm": draw(
            st.sampled_from(["seq-basic", "seq-opt", "parapsp"])
        ),
        "queue": draw(st.sampled_from(["fifo", "heap"])),
        "use_flags": draw(st.booleans()),
        "backend": draw(st.sampled_from(["serial", "sim"])),
    }
    if out["backend"] == "sim":
        out["num_threads"] = draw(st.integers(min_value=1, max_value=8))
    if out["algorithm"] != "seq-basic":
        out["ratio"] = draw(
            st.sampled_from([0.25, 0.5, 0.9, 1.0])
        )
    if draw(st.booleans()):
        out["schedule"] = draw(
            st.sampled_from(["block", "static-cyclic", "dynamic"])
        )
    return out


@settings(max_examples=12, deadline=None)
@given(deterministic_kwargs())
def test_parity_property(toy_graph, kwargs):
    _assert_same_run(
        solve_apsp(toy_graph, **kwargs),
        solve_apsp(toy_graph, **_rebuilt(kwargs)),
    )

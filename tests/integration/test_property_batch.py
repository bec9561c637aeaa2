"""Property-based one-worker sweep equivalence through ``run_sweep``.

A sweep on one worker (serial or threads backend, ``num_threads=1``)
is *bitwise-identical* to a plain in-order loop of
``modified_dijkstra_sssp`` — the distance matrix AND every per-source
``OpCounts`` — for every graph, issue order and queue discipline,
flags on or off.  With several real threads flags are read
opportunistically, so the op counts may differ (forgone reuse
opportunities) but the distances stay exact.  The kernel-level
contract lives in ``tests/core/test_native_sweep.py``.

Hypothesis drives the graph space: vertex counts from 1 to 138, with
sizes either side of 64 drawn often.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.modified_dijkstra import modified_dijkstra_sssp
from repro.core.state import new_state
from repro.core.sweep import run_sweep
from repro.graphs import from_arc_arrays
from repro.obs import MetricsRegistry, use_registry
from tests.integration.test_property_apsp import random_graph

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

QUEUES = st.sampled_from(["fifo", "heap"])
#: sizes either side of this are drawn often
WIDTH = 64


@st.composite
def blocky_graph(draw, max_n=2 * WIDTH + 10):
    """A seeded random graph, often sized either side of ``WIDTH``.

    Small integer weights make equal-length paths (ties) common, which
    is where a different merge order would show in the last bit.
    """
    n = draw(
        st.one_of(
            st.sampled_from([1, 2, WIDTH - 1, WIDTH, WIDTH + 1]),
            st.integers(1, max_n),
        )
    )
    seed = draw(st.integers(0, 2**16))
    directed = draw(st.booleans())
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 3 * n + 1)) if n > 1 else 0
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    weights = (
        rng.integers(1, 4, size=m).astype(np.float64)
        if draw(st.booleans())
        else rng.uniform(0.1, 50.0, size=m)
    )
    return from_arc_arrays(
        src[keep], dst[keep], weights[keep], num_vertices=n, directed=directed
    )


def in_order_sweep(graph, order, *, queue="fifo", use_flags=True):
    """The reference: one ``modified_dijkstra_sssp`` per source, in order."""
    state = new_state(graph.num_vertices)
    per_source = [None] * graph.num_vertices
    for s in order:
        per_source[int(s)] = modified_dijkstra_sssp(
            graph, int(s), state, queue=queue, use_flags=use_flags
        )
    return state.dist, per_source


def _order_for(graph, seed):
    rng = np.random.default_rng(seed)
    return rng.permutation(graph.num_vertices)


def _assert_bitwise(outcome, reference):
    dist, per_source = reference
    assert outcome.dist.tobytes() == dist.tobytes(), (
        "one-worker distance matrix differs bitwise from the in-order sweep"
    )
    assert outcome.per_source == per_source, (
        "one-worker per-source OpCounts differ from the in-order sweep"
    )


class TestStrictBitwise:
    @given(
        graph=blocky_graph(),
        queue=QUEUES,
        use_flags=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(**SETTINGS)
    def test_serial(self, graph, queue, use_flags, seed):
        order = _order_for(graph, seed)
        reference = in_order_sweep(
            graph, order, queue=queue, use_flags=use_flags
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            outcome = run_sweep(
                graph, order, queue=queue, use_flags=use_flags
            )
        _assert_bitwise(outcome, reference)
        assert registry.counters()["sweep.count"] == graph.num_vertices

    @given(
        graph=blocky_graph(),
        queue=QUEUES,
        use_flags=st.booleans(),
    )
    @settings(**SETTINGS)
    def test_threads_one_worker_is_strict(self, graph, queue, use_flags):
        order = np.arange(graph.num_vertices)
        reference = in_order_sweep(
            graph, order, queue=queue, use_flags=use_flags
        )
        outcome = run_sweep(
            graph,
            order,
            backend="threads",
            num_threads=1,
            queue=queue,
            use_flags=use_flags,
        )
        _assert_bitwise(outcome, reference)

    @pytest.mark.parametrize("queue", ["fifo", "heap"])
    @pytest.mark.parametrize("n", [1, WIDTH - 1, WIDTH, 2 * WIDTH + 3])
    def test_block_boundaries(self, n, queue):
        """Sizes pinned: one vertex, either side of 64, and ragged."""
        rng = np.random.default_rng(n)
        m = 4 * n
        src, dst = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        keep = src != dst
        graph = from_arc_arrays(
            src[keep], dst[keep], rng.integers(1, 4, size=m)[keep] * 1.0,
            num_vertices=n, directed=True,
        )
        order = rng.permutation(n)
        _assert_bitwise(
            run_sweep(graph, order, queue=queue),
            in_order_sweep(graph, order, queue=queue),
        )


class TestConcurrentExact:
    @given(
        graph=random_graph(),
        threads=st.integers(2, 4),
        queue=QUEUES,
    )
    @settings(**SETTINGS)
    def test_threads_multiworker_distances(self, graph, threads, queue):
        """Several workers: exact distances (op counts may differ)."""
        order = np.arange(graph.num_vertices)
        reference, _ = in_order_sweep(graph, order, queue=queue)
        outcome = run_sweep(
            graph,
            order,
            backend="threads",
            num_threads=threads,
            queue=queue,
        )
        assert np.array_equal(
            np.isfinite(outcome.dist), np.isfinite(reference)
        )
        fin = np.isfinite(reference)
        # equally-short paths may round differently depending on which
        # finalised row a racy reader saw — last-ulp tolerance like the
        # cross-algorithm exactness test
        np.testing.assert_allclose(
            outcome.dist[fin], reference[fin], rtol=1e-12, atol=0.0
        )

    @given(
        graph=blocky_graph(),
        threads=st.integers(2, 3),
        queue=QUEUES,
        use_flags=st.booleans(),
    )
    @settings(**SETTINGS)
    def test_serial_virtual_workers_per_source(
        self, graph, threads, queue, use_flags
    ):
        """Serial virtual workers run one task per source.  Dynamic
        claims still execute in index order there, so the run stays
        bitwise the in-order sweep."""
        order = np.arange(graph.num_vertices)
        reference = in_order_sweep(
            graph, order, queue=queue, use_flags=use_flags
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            outcome = run_sweep(
                graph, order, num_threads=threads, queue=queue,
                use_flags=use_flags,
            )
        assert registry.counters()["sweep.count"] == graph.num_vertices
        _assert_bitwise(outcome, reference)

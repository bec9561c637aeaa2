"""Byte identity of the native flagless rows against the sweep.

Every flagless exact-row path (store builds, repair, the update's
dirty-shard re-solve and endpoint refinement, Johnson's inner solve)
runs :func:`repro.core.dijkstra.dijkstra_rows`: the ``_sweep.c`` kernel
with a FIFO queue and flags off, or scipy's Dijkstra when the kernel
does not load.  The per-vertex ``modified_dijkstra_sssp(use_flags=False)``
sweep stays as the reference: with non-negative weights all three reach
the same float fixpoint (the minimum over paths of the left-to-right
float sum), so rows must agree byte for byte — on arbitrary float
weights, not only on weights where summation order cannot matter.

Store builds also merge hub rows (:func:`repro.core.dijkstra.hub_rows`)
where every path sum is an exact integer; there the rows must equal the
flagless ones bitwise too, and everywhere else the gate must solve no
hub rows at all.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    dijkstra_rows,
    modified_dijkstra_sssp,
    native,
    solve_apsp_rows,
    solve_apsp_shards,
)
from repro.core.dijkstra import dijkstra_sssp, exact_sums, hub_rows
from repro.core.johnson import bellman_ford_potentials, reweight_graph
from repro.core.state import new_state
from repro.exceptions import AlgorithmError, NegativeWeightError
from repro.graphs import CSRGraph, attach_negative_weights, from_arc_arrays
from repro.graphs.generators import attach_random_weights
from repro.graphs.rmat import rmat
from repro.obs import MetricsRegistry, use_registry
from repro.serve.update import (
    EdgeUpdate,
    _exact_dirty_rows,
    apply_updates_to_graph,
)

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_n=14, directed=None, weights=None):
    """Random graphs, possibly disconnected, with one weight family.

    ``weights``, a name or a strategy drawing one: ``"dyadic"``
    (multiples of 1/4, many ties), ``"float"`` (arbitrary floats,
    rounding in every sum), ``"zeros"`` (floats with some arcs set to
    exactly 0, built with ``allow_negative=True`` as Johnson's
    reweighting produces) or ``"integral"`` (integers 1–9 with some arcs
    set to 0, where hub rows are reused).  Up to three trailing vertices
    are islands with no arcs, so rows hold ``inf`` runs.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    islands = draw(st.integers(0, 3))
    if directed is None:
        directed = draw(st.booleans())
    if weights is None:
        weights = st.sampled_from(["dyadic", "float", "zeros"])
    if not isinstance(weights, str):
        weights = draw(weights)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=3 * n,
        )
    ) if n > 1 else []
    m = len(pairs)
    if weights in ("dyadic", "integral"):
        w = np.asarray(
            draw(st.lists(st.integers(1, 12), min_size=m, max_size=m)),
            dtype=np.float64,
        )
        w = w / 4.0 if weights == "dyadic" else np.ceil(w * 0.75)
    else:
        w = np.asarray(
            draw(
                st.lists(
                    st.floats(0.01, 10.0, allow_nan=False),
                    min_size=m,
                    max_size=m,
                )
            ),
            dtype=np.float64,
        )
    src = np.asarray([p[0] for p in pairs], dtype=np.int64)
    dst = np.asarray([p[1] for p in pairs], dtype=np.int64)
    n += islands
    graph = from_arc_arrays(src, dst, w, num_vertices=n, directed=directed)
    if weights in ("zeros", "integral") and graph.num_arcs:
        # zero whole edges (both arcs of an undirected one) by their
        # canonical endpoint pair
        arc_src = np.repeat(np.arange(n), np.diff(graph.indptr))
        lo = np.minimum(arc_src, graph.indices)
        hi = np.maximum(arc_src, graph.indices)
        salt = draw(st.integers(0, 2))
        zero = (lo * 7 + hi * 3 + salt) % 3 == 0
        graph = CSRGraph(
            graph.indptr,
            graph.indices,
            np.where(zero, 0.0, graph.weights),
            directed=directed,
            allow_negative=True,
        )
    return graph


def sweep_rows(graph, sources, queue="fifo"):
    """The reference: one flagless per-vertex sweep per source."""
    n = graph.num_vertices
    state = new_state(n)
    for s in sources:
        modified_dijkstra_sssp(
            graph, int(s), state, queue=queue, use_flags=False
        )
    return state.dist[np.asarray(sources, dtype=np.int64)]


@contextmanager
def scipy_fallback():
    """Run as if the native kernel had not loaded."""
    with mock.patch.object(native, "load", return_value=(None, "python")):
        yield


def fallback_rows(graph, sources):
    with scipy_fallback():
        return dijkstra_rows(graph, sources)


def streamed(graph, shard_rows, **options):
    """Concatenate the shards of one ``solve_apsp_shards`` stream."""
    blocks = [
        (start, rows.copy())
        for start, rows in solve_apsp_shards(
            graph, shard_rows=shard_rows, use_flags=False, **options
        )
    ]
    return blocks


class TestKernelRows:
    @given(graph=graphs())
    @settings(**SETTINGS)
    def test_rows_match_fifo_and_heap_sweeps(self, graph):
        sources = np.arange(graph.num_vertices)
        got = dijkstra_rows(graph, sources)
        assert got.dtype == np.float64
        assert got.shape == (graph.num_vertices, graph.num_vertices)
        assert got.tobytes() == fallback_rows(graph, sources).tobytes()
        for queue in ("fifo", "heap"):
            assert got.tobytes() == sweep_rows(graph, sources, queue).tobytes()

    @given(graph=graphs(), data=st.data())
    @settings(**SETTINGS)
    def test_any_source_subset_in_any_order(self, graph, data):
        # unsorted, with repeats
        sources = data.draw(
            st.lists(st.integers(0, graph.num_vertices - 1), max_size=6)
        )
        got = dijkstra_rows(graph, sources)
        assert got.shape == (len(sources), graph.num_vertices)
        assert got.tobytes() == sweep_rows(graph, sources).tobytes()
        assert got.tobytes() == fallback_rows(graph, sources).tobytes()

    def test_out_block_equals_returned_rows(self):
        graph = from_arc_arrays(
            [0, 1, 2], [1, 2, 0], [0.1, 0.2, 0.3], num_vertices=4,
            directed=True,
        )
        direct = dijkstra_rows(graph, [0, 3])
        block = np.full((2, 4), -1.0)
        assert dijkstra_rows(graph, [0, 3], out=block) is block
        assert direct.tobytes() == block.tobytes()
        assert np.isinf(direct[1, :3]).all() and direct[1, 3] == 0.0
        with scipy_fallback():
            block.fill(-1.0)
            dijkstra_rows(graph, [0, 3], out=block)
        assert direct.tobytes() == block.tobytes()

    def test_bad_sources_and_blocks_raise(self):
        graph = from_arc_arrays([0], [1], [1.0], num_vertices=3)
        with pytest.raises(AlgorithmError, match="vertex ids"):
            dijkstra_rows(graph, [0, 3])
        with pytest.raises(AlgorithmError, match="out must be"):
            dijkstra_rows(graph, [0, 1], out=np.empty((2, 2)))
        with pytest.raises(AlgorithmError, match="out must be"):
            dijkstra_rows(graph, [0, 1], out=np.empty((3, 2)).T)
        assert dijkstra_rows(graph, []).shape == (0, 3)

    @pytest.mark.parametrize("forced", [False, True])
    def test_negative_weights_raise_on_both_paths(self, forced):
        # a negative cycle 0 -> 1 -> 0: a FIFO sweep would never stop
        graph = CSRGraph(
            np.array([0, 1, 2]), np.array([1, 0]), np.array([1.0, -2.0]),
            directed=True, allow_negative=True,
        )
        if forced:
            with scipy_fallback(), pytest.raises(NegativeWeightError):
                dijkstra_rows(graph, [0])
        else:
            with pytest.raises(NegativeWeightError):
                dijkstra_rows(graph, [0])

    def test_single_vertex(self):
        graph = CSRGraph(np.zeros(2, dtype=np.int64), np.zeros(0))
        assert dijkstra_rows(graph, [0]).tolist() == [[0.0]]
        ((start, rows),) = streamed(graph, 4)
        assert start == 0 and rows.tolist() == [[0.0]]


class TestShardStream:
    @given(graph=graphs(), data=st.data())
    @settings(**SETTINGS)
    def test_every_shard_size_matches_the_sweep(self, graph, data):
        n = graph.num_vertices
        reference = sweep_rows(graph, range(n))
        extra = data.draw(st.integers(1, 5))
        for shard_rows in (1, 7, n, n + extra):
            blocks = streamed(graph, shard_rows)
            assert [s for s, _ in blocks] == list(range(0, n, shard_rows))
            matrix = np.concatenate([rows for _, rows in blocks])
            assert matrix.tobytes() == reference.tobytes()

    @given(graph=graphs(), data=st.data())
    @settings(**SETTINGS)
    def test_sub_ranges_match_the_sweep(self, graph, data):
        # a contiguous row range, asked for as a source list, equals the
        # same rows of the shard stream and of the reference sweep
        n = graph.num_vertices
        shard_rows = data.draw(st.sampled_from([1, 7, n, n + 2]))
        start = data.draw(st.integers(0, n))
        stop = data.draw(st.integers(start, n))
        got = solve_apsp_rows(graph, range(start, stop))
        assert got.shape == (stop - start, n)
        streamed_rows = np.concatenate(
            [rows for _, rows in streamed(graph, shard_rows)]
        )
        assert got.tobytes() == streamed_rows[start:stop].tobytes()
        assert got.tobytes() == sweep_rows(graph, range(start, stop)).tobytes()

    @given(graph=graphs(), data=st.data())
    @settings(**SETTINGS)
    def test_row_subsets_match_the_sweep(self, graph, data):
        n = graph.num_vertices
        # any subset, unsorted, with repeats
        sources = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        reference = sweep_rows(graph, sources)
        for algorithm in ("parapsp", "johnson"):
            got = solve_apsp_rows(graph, sources, algorithm=algorithm)
            assert got.shape == (len(sources), n)
            assert got.tobytes() == reference.tobytes()
        if graph.directed:
            # Johnson on negative weights: reweighted rows, then the
            # per-source un-reweighting of its finalize
            neg = attach_negative_weights(
                graph, seed=data.draw(st.integers(0, 2**16))
            )
            h, _, _ = bellman_ford_potentials(neg)
            inner = reweight_graph(neg, h) if np.any(h != 0.0) else neg
            rows = np.asarray(sources, dtype=np.int64)
            want = sweep_rows(inner, sources) + (h[None, :] - h[rows, None])
            got = solve_apsp_rows(neg, sources, algorithm="johnson")
            assert got.tobytes() == want.tobytes()

    @given(
        graph=graphs(
            directed=True, weights=st.sampled_from(["dyadic", "float"])
        ),
        seed=st.integers(0, 2**16),
        shard_rows=st.sampled_from([1, 3, 7]),
    )
    @settings(**SETTINGS)
    def test_johnson_reweighted_zero_weight_path(self, graph, seed, shard_rows):
        # negative weights from potentials: the reweighted inner graph
        # has exact zeros on every tight arc
        graph = attach_negative_weights(graph, seed=seed)
        h, _, _ = bellman_ford_potentials(graph)
        inner = reweight_graph(graph, h) if np.any(h != 0.0) else graph
        n = graph.num_vertices
        reference = sweep_rows(inner, range(n)) + (h[None, :] - h[:, None])
        blocks = streamed(graph, shard_rows, algorithm="johnson")
        matrix = np.concatenate([rows for _, rows in blocks])
        assert matrix.tobytes() == reference.tobytes()


class TestTelemetry:
    def test_native_rows_counted_inside_the_shard_span(self):
        graph = from_arc_arrays(
            [0, 1, 2, 3], [1, 2, 3, 4], [1.0, 2.0, 0.5, 1.5],
            num_vertices=10,
        )
        reg = MetricsRegistry()
        with use_registry(reg):
            streamed(graph, 4)
        counters = reg.counters()
        assert counters["sweep.native_rows"] == 10
        assert counters["serve.store.shards_solved"] == 3
        # the per-vertex sweep and the ordering never ran
        assert "sweep.count" not in counters
        assert not any(k.startswith(("ops.", "kernel.relax.")) for k in counters)
        names = [rec.path for rec in reg.spans]
        assert names.count("apsp.shard") == 3
        assert "apsp.ordering" not in names

    def test_store_build_publishes_only_native_rows(self, tmp_path):
        from repro.serve import solve_to_store

        weighted = from_arc_arrays(
            [0, 1, 2, 3], [1, 2, 3, 4], [1.0, 2.0, 0.5, 1.5],
            num_vertices=10,
        )
        unit = weighted.with_unit_weights()
        # n exact rows either way: the unit-weight build solves its 4
        # hub rows once and copies them into their own shard rows
        for graph, hubs in ((weighted, 0), (unit, 4)):
            reg = MetricsRegistry()
            with use_registry(reg):
                solve_to_store(graph, tmp_path / f"store{hubs}", shard_rows=4)
            counters = reg.counters()
            assert counters["sweep.native_rows"] == 10
            assert counters.get("sweep.hub_rows", 0) == hubs
            assert "sweep.count" not in counters
            assert not any(k.startswith("ops.") for k in counters)

    def test_flagged_shards_run_the_flagless_kernel(self):
        # float weights, where a flag merge could move the last bit
        graph = attach_random_weights(
            rmat(6, 8, seed=3), weight_range=(0.5, 10.0), seed=3
        )
        n = graph.num_vertices
        reg = MetricsRegistry()
        with use_registry(reg):
            blocks = [
                rows.copy()
                for _, rows in solve_apsp_shards(
                    graph, shard_rows=16, use_flags=True
                )
            ]
        matrix = np.concatenate(blocks)
        assert matrix.tobytes() == sweep_rows(graph, range(n)).tobytes()
        counters = reg.counters()
        assert counters["sweep.native_rows"] == n
        assert "sweep.count" not in counters


def hub_count(graph, shard_rows, **options):
    """The stream's rows and the hub rows its gate chose to solve."""
    reg = MetricsRegistry()
    with use_registry(reg):
        rows = np.concatenate(
            [rows for _, rows in streamed(graph, shard_rows, **options)]
        )
    return rows, reg.counters().get("sweep.hub_rows", 0)


class TestHubReuse:
    @given(graph=graphs(weights="integral"), data=st.data())
    @settings(**SETTINGS)
    def test_hub_rows_equal_flagless_rows(self, graph, data):
        n = graph.num_vertices
        flagless = solve_apsp_rows(graph, range(n))  # K = 0
        assert flagless.tobytes() == sweep_rows(graph, range(n)).tobytes()
        assert flagless.tobytes() == fallback_rows(graph, range(n)).tobytes()
        uneven = [k for k in range(2, n) if n % k]
        sizes = [1, n] + ([data.draw(st.sampled_from(uneven))] if uneven else [])
        for shard_rows in sizes:  # K = 1, K = n, K not dividing n
            rows, hubs = hub_count(graph, shard_rows)
            assert hubs == min(shard_rows, n)
            assert rows.tobytes() == flagless.tobytes()

    @given(
        graph=graphs(directed=True, weights="integral"),
        seed=st.integers(0, 2**16),
        shard_rows=st.sampled_from([1, 3, 7]),
    )
    @settings(**SETTINGS)
    def test_johnson_on_integral_negative_weights(self, graph, seed,
                                                  shard_rows):
        # integer potentials: negative integral arcs, integral h, and a
        # reweighted inner graph that passes the gate
        graph = attach_negative_weights(graph, seed=seed)
        h, _, _ = bellman_ford_potentials(graph)
        inner = reweight_graph(graph, h) if np.any(h != 0.0) else graph
        assert exact_sums(inner)
        n = graph.num_vertices
        want = sweep_rows(inner, range(n)) + (h[None, :] - h[:, None])
        rows, hubs = hub_count(graph, shard_rows, algorithm="johnson")
        assert hubs == min(shard_rows, n)
        assert rows.tobytes() == want.tobytes()
        flagless = solve_apsp_rows(graph, range(n), algorithm="johnson")
        assert rows.tobytes() == flagless.tobytes()

    @given(graph=graphs(weights="integral"), seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_hub_block_is_the_flagless_rows(self, graph, seed):
        # the hub block merges its own earlier rows as it is filled
        ids = np.random.default_rng(seed).permutation(graph.num_vertices)
        hubs = hub_rows(graph, ids)
        assert hubs.rows.tobytes() == sweep_rows(graph, ids).tobytes()
        assert (hubs.slot[ids] == np.arange(len(ids))).all()

    @pytest.mark.parametrize("case", ["float", "inf", "2**53"])
    def test_gate_solves_no_hubs_where_sums_can_round(self, case):
        weight = {"float": 0.5, "inf": np.inf, "2**53": 2.0**52}[case]
        graph = from_arc_arrays(
            [0, 1, 2, 3], [1, 2, 3, 0], [1.0, 2.0, weight, 1.0],
            num_vertices=5,
        )
        # (n - 1) * max_w = 4 * 2**52 = 2**54 for the big weight
        assert not exact_sums(graph)
        assert hub_rows(graph, [0, 1]) is None
        rows, hubs = hub_count(graph, 2)
        assert hubs == 0
        assert rows.tobytes() == sweep_rows(graph, range(5)).tobytes()

    def test_gate_bound_is_strict(self):
        # (n - 1) * max_w just below 2**53 passes; at 2**53 it fails
        for max_w, exact in ((2.0**52 - 1, True), (2.0**52, False)):
            graph = from_arc_arrays(
                [0, 1], [1, 2], [1.0, max_w], num_vertices=3,
            )
            assert exact_sums(graph) is exact
            rows, hubs = hub_count(graph, 3)
            assert hubs == (3 if exact else 0)
            assert rows.tobytes() == sweep_rows(graph, range(3)).tobytes()

    def test_no_hubs_when_the_kernel_does_not_load(self):
        graph = rmat(5, 4, seed=1)
        with scipy_fallback():
            rows, hubs = hub_count(graph, 8)
        assert hubs == 0
        assert rows.tobytes() == solve_apsp_rows(
            graph, range(graph.num_vertices)
        ).tobytes()

    def test_row_subsets_solve_no_hubs(self):
        graph = rmat(6, 4, seed=1)
        reg = MetricsRegistry()
        with use_registry(reg):
            solve_apsp_rows(graph, range(16))
        assert "sweep.hub_rows" not in reg.counters()


def old_exact_dirty_rows(graph_old, graph_new, endpoints):
    """The per-endpoint pure-Python loop the kernel call replaced."""
    changed = np.zeros(graph_old.num_vertices, dtype=bool)
    for e in endpoints:
        d_old, _ = dijkstra_sssp(graph_old, e)
        d_new, _ = dijkstra_sssp(graph_new, e)
        changed |= d_old != d_new
    return changed


@st.composite
def update_batches(draw):
    graph = draw(graphs(max_n=16, directed=False, weights="float"))
    n = graph.num_vertices
    if n < 2:
        return graph, []
    existing = {
        (min(u, v), max(u, v))
        for u in range(n)
        for v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]].tolist()
    }
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda p: p[0] < p[1]),
            max_size=5,
            unique=True,
        )
    )
    updates = []
    for u, v in keys:
        delete = (u, v) in existing and draw(st.booleans())
        weight = None if delete else draw(st.floats(0.01, 10.0))
        updates.append(EdgeUpdate(u, v, weight))
    return graph, updates


class TestExactDirtyRows:
    @given(batch=update_batches())
    @settings(**SETTINGS)
    def test_mask_matches_per_endpoint_loop(self, batch):
        graph, updates = batch
        new_graph = apply_updates_to_graph(graph, updates)
        endpoints = sorted({x for upd in updates for x in (upd.u, upd.v)})
        got = _exact_dirty_rows(graph, new_graph, endpoints)
        want = old_exact_dirty_rows(graph, new_graph, endpoints)
        assert got.dtype == bool
        assert np.array_equal(got, want)

    def test_no_endpoints_no_dirty_rows(self):
        graph = from_arc_arrays([0], [1], [1.0], num_vertices=3)
        got = _exact_dirty_rows(graph, graph, [])
        assert got.shape == (3,) and not got.any()


@pytest.mark.parametrize("directed", [False, True])
def test_rmat_rows_match_the_sweep(directed):
    """A larger scale-free graph with float weights, end to end."""
    graph = attach_random_weights(
        rmat(7, 8, seed=3, directed=directed), weight_range=(0.5, 10.0),
        seed=3,
    )
    n = graph.num_vertices
    matrix = np.concatenate([rows.copy() for _, rows in solve_apsp_shards(
        graph, shard_rows=16, use_flags=False
    )])
    assert matrix.tobytes() == sweep_rows(graph, range(n)).tobytes()


def test_import_stays_numpy_only():
    """scipy loads on the first kernel call, not on ``import repro``; the
    native sweep kernel is neither compiled nor loaded by the import."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import os, subprocess, sys\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('import started a process')\n"
        "subprocess.Popen = refuse\n"
        "import repro, repro.core, repro.serve\n"
        "assert 'scipy' not in sys.modules, 'scipy imported eagerly'\n"
        "assert repro.core.native._loaded is None, 'kernel loaded eagerly'\n"
        "if os.path.exists('/proc/self/maps'):\n"
        "    assert '_sweep-' not in open('/proc/self/maps').read()\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )

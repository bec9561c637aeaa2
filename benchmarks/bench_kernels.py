"""Micro-benchmarks of the real (wall-clock) kernels.

These time the actual Python/numpy implementations — the sweeps, the
ordering procedures, the sorts and the baselines — as opposed to the
experiment benches, which report virtual time from the simulated
machine.
"""

import numpy as np
import pytest

from repro.baselines import floyd_warshall, repeated_dijkstra
from repro.core import (
    modified_dijkstra_sssp,
    native,
    new_state,
    run_sweep,
    solve_apsp,
)
from repro.graphs import degree_array, load_dataset
from repro.order import (
    exact_bucket_order,
    multilists_order,
    par_buckets_order,
    par_max_order,
    selection_order,
)
from repro.sort import counting_argsort, multilists_argsort
from repro.types import OpCounts


@pytest.fixture(scope="module")
def graph():
    return load_dataset("WordNet", scale=400)


@pytest.fixture(scope="module")
def degrees(graph):
    return degree_array(graph)


@pytest.fixture(scope="module")
def big_degrees():
    return degree_array(load_dataset("WordNet", scale=20000))


def test_modified_dijkstra_single_sweep(benchmark, graph):
    state = new_state(graph.num_vertices)

    def sweep():
        state.reset()
        return modified_dijkstra_sssp(graph, 0, state)

    benchmark(sweep)


def test_seq_basic_apsp(benchmark, graph):
    benchmark.pedantic(
        lambda: solve_apsp(graph, algorithm="seq-basic"),
        rounds=1,
        iterations=1,
    )


def test_seq_opt_apsp(benchmark, graph):
    benchmark.pedantic(
        lambda: solve_apsp(graph, algorithm="seq-opt"),
        rounds=1,
        iterations=1,
    )


def test_floyd_warshall_baseline(benchmark, graph):
    benchmark.pedantic(lambda: floyd_warshall(graph), rounds=1, iterations=1)


def test_repeated_dijkstra_baseline(benchmark, graph):
    benchmark.pedantic(
        lambda: repeated_dijkstra(graph), rounds=1, iterations=1
    )


def test_selection_ordering(benchmark, degrees):
    benchmark(lambda: selection_order(degrees))


def test_exact_bucket_ordering(benchmark, big_degrees):
    benchmark(lambda: exact_bucket_order(big_degrees))


def test_parbuckets_ordering_real(benchmark, big_degrees):
    benchmark(
        lambda: par_buckets_order(big_degrees, num_threads=4, backend="threads")
    )


def test_parmax_ordering_real(benchmark, big_degrees):
    benchmark(
        lambda: par_max_order(big_degrees, num_threads=4, backend="threads")
    )


def test_multilists_ordering_real(benchmark, big_degrees):
    benchmark(
        lambda: multilists_order(big_degrees, num_threads=4, backend="threads")
    )


def test_one_worker_sweep(benchmark, graph):
    """One worker: one native kernel call per source."""
    n = graph.num_vertices
    benchmark.pedantic(
        lambda: run_sweep(graph, np.arange(n)), rounds=1, iterations=1
    )


def test_one_worker_python_sweep(benchmark, graph, monkeypatch):
    """The same sweep on the Python fallback kernel."""
    monkeypatch.setattr(native, "_loaded", (None, "python (bench)"))
    n = graph.num_vertices
    benchmark.pedantic(
        lambda: run_sweep(graph, np.arange(n)), rounds=1, iterations=1
    )


def test_per_source_sweep(benchmark, graph):
    """Two serial virtual workers: one task per source."""
    n = graph.num_vertices
    benchmark.pedantic(
        lambda: run_sweep(graph, np.arange(n), num_threads=2),
        rounds=1,
        iterations=1,
    )


def _opcounts_workload():
    """4096 varied counters — one per source of a mid-size APSP run."""
    return [
        OpCounts(
            pops=i,
            edge_relaxations=2 * i,
            edge_improvements=i,
            row_merges=i % 5,
            merge_comparisons=400 * (i % 5),
            flag_hits=i % 3,
        )
        for i in range(4096)
    ]


def test_opcounts_sum_reduction(benchmark):
    """ISSUE 2 satellite: OpCounts.sum vs the per-object += fold."""
    counts = _opcounts_workload()
    benchmark(lambda: OpCounts.sum(counts))


def test_opcounts_iadd_fold_reference(benchmark):
    """The loop OpCounts.sum replaced, on the identical workload."""
    counts = _opcounts_workload()

    def fold():
        total = OpCounts()
        for c in counts:
            total += c
        return total

    benchmark(fold)


def test_counting_argsort(benchmark, big_degrees):
    benchmark(lambda: counting_argsort(big_degrees, descending=True))


def test_multilists_argsort(benchmark, big_degrees):
    benchmark(
        lambda: multilists_argsort(
            big_degrees, descending=True, num_threads=4
        )
    )

"""The iterative-Dijkstra phase: n SSSP sweeps in a given source order.

This module is the engine behind ParAlg1/ParAlg2/ParAPSP's main loop
(Algorithm 4 / Algorithm 8 lines 4–8) on the *real* execution backends.
The simulated counterpart lives in :mod:`repro.core.simulate`.

The worker count picks the execution strategy; no option does:

* **one worker** (``num_threads == 1`` on any backend) — sources run in
  blocks of :data:`~repro.core.batch.BLOCK` through the lockstep engine
  of :mod:`repro.core.batch`, which replaces per-source row operations
  with blocked min-plus / concatenated-CSR kernels.  Distances and
  per-source ``OpCounts`` are bitwise those of an in-order loop of
  ``modified_dijkstra_sssp``.  A block is the unit of work a worker
  claims, so fault plans and crash recovery count blocks here;
* **two or more workers** (real threads or processes, or the serial
  backend's virtual workers) — one ``modified_dijkstra_sssp`` call per
  source, each claimed on its own.

Concurrency notes (threads backend): every sweep writes only its own
row of the distance matrix; rows of *other* sources are only read after
their ``flag`` was observed set, and a flag is set strictly after its
row's final write (program order under the GIL).  A reader that misses
a freshly-set flag merely forgoes a reuse opportunity — the output is
exact either way, which is the paper's §5 claim and is asserted
bitwise in the test suite.

Process backend: the matrix and the flag vector live in
``multiprocessing.shared_memory``; workers inherit the mapping via
fork.  Flags are single bytes, so torn reads are impossible; x86-TSO
(and the CPython interpreter's own synchronisation) preserve the
row-then-flag write order.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import AlgorithmError, BackendError
from ..graphs.csr import CSRGraph
from ..parallel import Backend, Schedule, parallel_for
from ..parallel.backends.process import SharedArray, fork_available, run_parallel_map
from ..obs import metrics as _obs
from ..types import INF, OpCounts
from .batch import BLOCK, run_block
from .costs import DEFAULT_COST_MODEL, DijkstraCostModel
from .modified_dijkstra import modified_dijkstra_sssp
from .state import APSPState, new_state

__all__ = ["SweepOutcome", "run_sweep"]


class SweepOutcome:
    """Distance matrix + per-source op accounting of one sweep phase."""

    __slots__ = ("dist", "per_source", "elapsed_seconds")

    def __init__(
        self,
        dist: np.ndarray,
        per_source: List[OpCounts],
        elapsed_seconds: float,
    ) -> None:
        self.dist = dist
        self.per_source = per_source
        self.elapsed_seconds = elapsed_seconds

    def total_ops(self) -> OpCounts:
        return OpCounts.sum(self.per_source)

    def work_vector(
        self, model: DijkstraCostModel = DEFAULT_COST_MODEL
    ) -> np.ndarray:
        return np.asarray(
            [model.sweep_cost(c) for c in self.per_source], dtype=np.float64
        )


def run_sweep(
    graph: CSRGraph,
    order: np.ndarray,
    *,
    backend: "Backend | str" = Backend.SERIAL,
    num_threads: int = 1,
    schedule: "Schedule | str" = Schedule.DYNAMIC,
    chunk: int = 1,
    queue: str = "fifo",
    use_flags: bool = True,
    fault_plan=None,
    on_worker_death: str = "raise",
    timeout: Optional[float] = None,
    max_retries: int = 3,
) -> SweepOutcome:
    """Run the full APSP sweep phase on a real backend.

    ``order[i]`` is the i-th source to issue (Algorithm 8 line 6–7).
    Returns per-source counts indexed by *vertex id* (not position).
    One worker runs the lockstep engine in blocks of
    :data:`~repro.core.batch.BLOCK` sources; more run one task per
    source (see the module docstring).

    Crash recovery: under ``on_worker_death="retry"`` a lost source (or
    block) has its distance row(s) reset to the fresh-sweep state — INF
    everywhere, 0 on the diagonal, flag cleared — before being re-run,
    which yields the bitwise-identical exact matrix (flags are only
    ever set after a row is final, so no other sweep can have read the
    partial row; with one worker the lost work is always the tail of
    the order, re-run in order).  ``fault_plan`` injects deterministic
    faults and ``timeout`` / ``max_retries`` bound each process round —
    see :mod:`repro.faults`.
    """
    backend = Backend.coerce(backend)
    schedule = Schedule.coerce(schedule)
    order = np.asarray(order, dtype=np.int64)
    n = graph.num_vertices
    if order.shape != (n,):
        raise AlgorithmError(
            f"order must list all {n} sources, got shape {order.shape}"
        )
    if backend is Backend.SIM:
        raise BackendError("use repro.core.simulate for the SIM backend")
    if backend is Backend.PROCESS:
        return _sweep_process(
            graph,
            order,
            num_threads=num_threads,
            schedule=schedule,
            chunk=chunk,
            queue=queue,
            use_flags=use_flags,
            fault_plan=fault_plan,
            on_worker_death=on_worker_death,
            timeout=timeout,
            max_retries=max_retries,
        )

    state = new_state(n)
    per_source: List[Optional[OpCounts]] = [None] * n
    if num_threads == 1:
        width = BLOCK
        positions = np.empty(n, dtype=np.int64)
        positions[order] = np.arange(n, dtype=np.int64)

        def body(b: int, _thread: int) -> None:
            with _obs.span("sweep.block"):
                got = run_block(
                    graph,
                    state,
                    order[b * BLOCK:(b + 1) * BLOCK],
                    positions,
                    queue=queue,
                    use_flags=use_flags,
                )
            for s, counts in got.items():
                per_source[s] = counts
    else:
        width = 1

        def body(i: int, _thread: int) -> None:
            s = int(order[i])
            with _obs.span("sweep.source"):
                per_source[s] = modified_dijkstra_sssp(
                    graph, s, state, queue=queue, use_flags=use_flags
                )

    t0 = time.perf_counter()
    parallel_for(
        -(-n // width),
        body,
        num_threads=num_threads,
        schedule=schedule,
        chunk=chunk,
        backend=backend,
        fault_plan=fault_plan,
        on_worker_death=on_worker_death,
        on_retry=_row_resetter(state, order, width, per_source),
    )
    elapsed = time.perf_counter() - t0
    counts = [c if c is not None else OpCounts() for c in per_source]
    return SweepOutcome(state.dist, counts, elapsed)


def _row_resetter(
    state: APSPState, order: np.ndarray, width: int, per_source=None
):
    """Recovery hook: return fresh-sweep state to lost sources.

    ``indices`` are loop positions; position ``i`` covers the sources
    ``order[i * width:(i + 1) * width]`` (one source, or one block),
    whose rows may be half-written by a dead worker.  A row reset
    mirrors :meth:`APSPState.reset` for that single source, after which
    re-running the sweep produces the exact row again (shortest-path
    distances are unique, so recovery is bitwise).
    """

    def reset(indices: List[int]) -> None:
        for i in indices:
            for s in order[i * width:(i + 1) * width].tolist():
                state.dist[s, :] = INF
                state.dist[s, s] = 0.0
                state.flag[s] = 0
                if per_source is not None:
                    per_source[s] = None

    return reset


def _sweep_process(
    graph: CSRGraph,
    order: np.ndarray,
    *,
    num_threads: int,
    schedule: Schedule,
    chunk: int,
    queue: str,
    use_flags: bool,
    fault_plan=None,
    on_worker_death: str = "raise",
    timeout: Optional[float] = None,
    max_retries: int = 3,
) -> SweepOutcome:
    """Shared-memory multiprocessing sweep.

    The distance matrix and flag vector are allocated in shared memory
    *before* forking, so every worker mutates the same physical pages;
    per-source op counts travel back through the result pipe.  A killed
    worker may leave half-written rows in the shared matrix — the
    recovery hook resets exactly those rows before the lost sources are
    re-swept, so the retried matrix is bitwise-identical.
    """
    n = graph.num_vertices
    if num_threads == 1 or not fork_available():
        return run_sweep(
            graph,
            order,
            backend=Backend.SERIAL,
            num_threads=1,
            schedule=schedule,
            chunk=chunk,
            queue=queue,
            use_flags=use_flags,
            fault_plan=fault_plan,
            on_worker_death=on_worker_death,
        )
    with SharedArray.allocate((n, n), np.float64) as shared_dist, \
            SharedArray.allocate((n,), np.uint8) as shared_flag:
        state = APSPState(dist=shared_dist.array, flag=shared_flag.array)
        state.reset()

        def work(i: int) -> Tuple[int, OpCounts]:
            s = int(order[i])
            counts = modified_dijkstra_sssp(
                graph, s, state, queue=queue, use_flags=use_flags
            )
            return s, counts

        t0 = time.perf_counter()
        results = run_parallel_map(
            n,
            work,
            num_threads=num_threads,
            schedule=schedule,
            chunk=chunk,
            fault_plan=fault_plan,
            on_worker_death=on_worker_death,
            timeout=timeout,
            max_retries=max_retries,
            on_retry=_row_resetter(state, order, 1),
        )
        elapsed = time.perf_counter() - t0
        per_source: List[OpCounts] = [OpCounts() for _ in range(n)]
        for s, counts in results:
            per_source[s] = counts
        dist = shared_dist.array.copy()  # segment dies with the context
    return SweepOutcome(dist, per_source, elapsed)

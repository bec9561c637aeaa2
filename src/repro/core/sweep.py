"""The iterative-Dijkstra phase: n SSSP sweeps in a given source order.

This module is the engine behind ParAlg1/ParAlg2/ParAPSP's main loop
(Algorithm 4 / Algorithm 8 lines 4–8) on the *real* execution backends.
The simulated counterpart lives in :mod:`repro.core.simulate`.

On the serial and threads backends the native kernel
(:mod:`repro.core.native`) sweeps, and it also claims: each worker is
one ``parallel_for`` task making one foreign call, which takes sources
from an atomic cursor (the shared one of ``schedule(dynamic, chunk)``,
or the worker's own static assignment) and drops the interpreter lock
throughout, so threads sweep in parallel.  On the serial executor that
call walks the executor's own issue order.  Three runs claim one
source per task in Python: the fallback without a C compiler, which
calls :func:`~repro.core.modified_dijkstra.modified_dijkstra_sssp`,
every run with a fault plan, whose claim and iteration hooks fire per
source, and the process backend.  All of them give the rows and
per-source ``OpCounts`` of an in-order loop of
``modified_dijkstra_sssp`` on one worker.

Concurrency notes (threads backend): every sweep writes only its own
row of the distance matrix; rows of *other* sources are only read after
their ``flag`` was observed set, and a flag is set strictly after its
row's final write.  The native kernel loads a flag with acquire and
stores it with release semantics, so a reader that sees the flag sees
the final row.  A reader that misses a freshly-set flag merely forgoes
a reuse opportunity — the output is exact either way, which is the
paper's §5 claim and is asserted in the test suite (bitwise on integer
weights; racy reuse may reorder float sums in the last bit).

Process backend: the matrix and the flag vector live in
``multiprocessing.shared_memory``; workers inherit the mapping and the
kernel bound over it via fork, sweep one source per work item with the
same body as every other backend, and send the source's count row back
through the result pipe.  Flags are single bytes, so torn reads are
impossible, and the kernel's acquire/release flag accesses order rows
and flags across processes as across threads.
"""

from __future__ import annotations

import ctypes
import time
from contextlib import ExitStack
from dataclasses import astuple
from typing import List, Optional

import numpy as np

from ..exceptions import AlgorithmError, BackendError
from ..graphs.csr import CSRGraph
from ..obs import metrics as _obs
from ..parallel import Backend, Schedule, parallel_for
from ..parallel.backends.process import SharedArray, fork_available, run_parallel_map
from ..parallel.backends.serial import issue_sequence
from ..parallel.schedule import check_loop, publish_dynamic, static_assignment
from ..types import INF, OpCounts
from . import native
from .costs import DEFAULT_COST_MODEL, DijkstraCostModel
from .modified_dijkstra import modified_dijkstra_sssp
from .state import APSPState, new_state

__all__ = ["SweepOutcome", "issue_order", "run_sweep"]


def issue_order(order, n: int) -> np.ndarray:
    """``order`` as int64, checked to issue every source exactly once.

    A repeated or out-of-range id would leave a row unswept, or have two
    workers write one row, so it raises :class:`AlgorithmError`.
    """
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (n,):
        raise AlgorithmError(
            f"order must list all {n} sources, got shape {order.shape}"
        )
    if not np.array_equal(np.sort(order), np.arange(n)):
        raise AlgorithmError(
            f"order must be a permutation of the {n} vertex ids"
        )
    return order


class CountedSweep:
    """Distance matrix + per-source op accounting of one sweep phase.

    ``counts`` is an ``(n, 6)`` int64 matrix indexed by vertex id whose
    columns are the ``OpCounts`` fields in order; the whole-phase totals
    and the work vector are column reductions of it, and the
    per-source ``OpCounts`` list is built only when it is read.
    """

    __slots__ = ("dist", "counts", "kernel", "_per_source")

    def __init__(self, dist: np.ndarray, counts: np.ndarray, kernel: str) -> None:
        self.dist = dist
        self.counts = counts
        #: which sweep kernel ran: ``"native"`` or ``"python (<why>)"``
        self.kernel = kernel
        self._per_source: Optional[List[OpCounts]] = None

    @property
    def per_source(self) -> List[OpCounts]:
        if self._per_source is None:
            self._per_source = [OpCounts(*row) for row in self.counts.tolist()]
        return self._per_source

    def total_ops(self) -> OpCounts:
        return OpCounts(*self.counts.sum(axis=0).tolist())

    def work_vector(
        self, model: DijkstraCostModel = DEFAULT_COST_MODEL
    ) -> np.ndarray:
        return model.sweep_costs(self.counts)


class SweepOutcome(CountedSweep):
    """A real sweep phase: the counted sweep and its wall time."""

    __slots__ = ("elapsed_seconds",)

    def __init__(
        self,
        dist: np.ndarray,
        counts: np.ndarray,
        elapsed_seconds: float,
        kernel: str,
    ) -> None:
        super().__init__(dist, counts, kernel)
        self.elapsed_seconds = elapsed_seconds


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

    ``order[i]`` is the i-th source to issue (Algorithm 8 line 6–7);
    it must be a permutation of the vertex ids.  Returns per-source
    counts indexed by *vertex id* (not position).  Where the native
    kernel loads and no ``fault_plan`` is set, each serial or threads
    worker claims and sweeps its sources in one native call; otherwise,
    and on the process backend, each source is one task (see the module
    docstring).

    Crash recovery: under ``on_worker_death="retry"`` a lost source has
    its distance row reset to the fresh-sweep state — INF everywhere, 0
    on the diagonal, flag cleared — before being re-run, which yields
    the bitwise-identical exact matrix (flags are only ever set after a
    row is final, so no other sweep can have read the partial row).
    ``fault_plan`` injects deterministic faults and ``timeout`` /
    ``max_retries`` bound each process round — see :mod:`repro.faults`.
    """
    backend = Backend.coerce(backend)
    schedule = Schedule.coerce(schedule)
    n = graph.num_vertices
    order = issue_order(order, n)
    if backend is Backend.SIM:
        raise BackendError("use repro.core.simulate for the SIM backend")
    if backend is Backend.PROCESS and (
        num_threads == 1 or not fork_available()
    ):
        # one worker, or no fork: the same sweep in this process
        backend, num_threads = Backend.SERIAL, 1
    check_loop(n, num_threads, chunk, on_worker_death)

    with ExitStack() as segments:
        if backend is Backend.PROCESS:
            # forked workers write one mapping of the matrix and flags
            dist, flag = (
                segments.enter_context(SharedArray.allocate(shape, dtype)).array
                for shape, dtype in (((n, n), np.float64), ((n,), np.uint8))
            )
            state = APSPState(dist, flag)
            state.reset()
        else:
            state = new_state(n)
        # bound once here: each forked worker writes its private copy of
        # scratch 0 and its own count rows, which travel back as results
        kernel = native.bind(
            graph, state, queue=queue, use_flags=use_flags,
            workers=1 if backend is Backend.PROCESS else num_threads,
        )
        t0 = time.perf_counter()
        try:
            if (kernel is not None and fault_plan is None
                    and backend is not Backend.PROCESS):
                _sweep_claims(
                    kernel, order, backend, num_threads, schedule, chunk
                )
                counts = kernel.counts[:, :6]
            else:
                counts = _sweep_sources(
                    graph, order, state, kernel, backend=backend,
                    num_threads=num_threads, schedule=schedule, chunk=chunk,
                    queue=queue, use_flags=use_flags, fault_plan=fault_plan,
                    on_worker_death=on_worker_death, timeout=timeout,
                    max_retries=max_retries,
                )
        finally:
            if kernel is not None:
                kernel.publish()
                kernel.close()
        elapsed = time.perf_counter() - t0
        # a shared segment dies with the context
        dist = state.dist.copy() if backend is Backend.PROCESS else state.dist
    name = "native" if kernel is not None else native.kernel_name()
    return SweepOutcome(dist, counts, elapsed, name)


def _sweep_claims(
    kernel: native.NativeSweep,
    order: np.ndarray,
    backend: Backend,
    num_threads: int,
    schedule: Schedule,
    chunk: int,
) -> None:
    """The fault-free native sweep: one task per worker, each one
    foreign call that claims and sweeps its sources in C.

    The serial executor's issue order is one call over its
    :func:`~repro.parallel.backends.serial.issue_sequence`, so serial
    rows and counts equal the per-source loop's bitwise.  Threads share
    one cursor under the dynamic schedule and sweep their own static
    assignment otherwise.
    """
    n = len(order)
    if backend is Backend.SERIAL or num_threads == 1:
        lanes = [issue_sequence(schedule, n, num_threads, chunk)]
        cursors = [ctypes.c_int64(0)]
    elif schedule is Schedule.DYNAMIC:
        lanes = [None] * num_threads
        cursors = [ctypes.c_int64(0)] * num_threads
    else:
        lanes = static_assignment(schedule, n, num_threads, chunk)
        cursors = [ctypes.c_int64(0) for _ in lanes]
    claims = [0] * len(lanes)

    def body(w: int, _thread: int) -> None:
        with _obs.span("sweep.block"):
            claims[w] = kernel.sweep_claims(
                order, lanes[w], cursors[w], chunk, worker=w
            )

    parallel_for(
        len(lanes), body, num_threads=len(lanes), schedule=Schedule.BLOCK,
        backend=backend,
    )
    if schedule is Schedule.DYNAMIC:
        publish_dynamic(sum(claims), n)


def _sweep_sources(
    graph: CSRGraph,
    order: np.ndarray,
    state: APSPState,
    kernel: Optional[native.NativeSweep],
    *,
    backend: Backend,
    num_threads: int,
    schedule: Schedule,
    chunk: int,
    queue: str,
    use_flags: bool,
    fault_plan,
    on_worker_death: str,
    timeout: Optional[float],
    max_retries: int,
) -> np.ndarray:
    """One task per source: the Python fallback, every fault-plan run,
    whose claim and iteration hooks fire per source, and the process
    backend, whose forked workers each return their sources' count
    rows.  Returns the ``(n, 6)`` count matrix."""
    n = graph.num_vertices
    sources = order.tolist()
    if kernel is None:
        table = np.zeros((n, 6), dtype=np.int64)

        def sweep(s: int, _thread: int) -> None:
            table[s] = astuple(modified_dijkstra_sssp(
                graph, s, state, queue=queue, use_flags=use_flags
            ))
    else:
        table, sweep = kernel.counts, kernel

    def body(i: int, thread: int) -> None:
        with _obs.span("sweep.source"):
            sweep(sources[i], thread)

    reset = _row_resetter(state, order, table)
    if backend is Backend.PROCESS:
        def work(i: int) -> np.ndarray:
            body(i, 0)
            return table[sources[i]]

        table[order] = run_parallel_map(
            n, work, num_threads=num_threads, schedule=schedule,
            chunk=chunk, fault_plan=fault_plan,
            on_worker_death=on_worker_death, timeout=timeout,
            max_retries=max_retries, on_retry=reset,
        )
        reg = _obs.get_registry()
        if kernel is None and reg is not None:
            # the Python sweep reported into each forked child's
            # registry, which died with it; publish() reports for the kernel
            reg.add("sweep.count", n)
            reg.add_many(OpCounts(*table.sum(axis=0).tolist()).as_dict(),
                         prefix="ops")
    else:
        parallel_for(
            n, body, num_threads=num_threads, schedule=schedule,
            chunk=chunk, backend=backend, fault_plan=fault_plan,
            on_worker_death=on_worker_death, on_retry=reset,
        )
    return table[:, :6]


def _row_resetter(state: APSPState, order: np.ndarray, counts: np.ndarray):
    """Recovery hook: return fresh-sweep state to lost sources.

    ``indices`` are loop positions; position ``i`` is source
    ``order[i]``, whose row may be half-written by a dead worker.  A
    row reset mirrors :meth:`APSPState.reset` for that single source
    (and zeroes its ``counts`` row), after which re-running the sweep
    produces the exact row again (shortest-path distances are unique,
    so recovery is bitwise).
    """

    def reset(indices: List[int]) -> None:
        for s in order[indices].tolist():
            state.dist[s, :] = INF
            state.dist[s, s] = 0.0
            state.flag[s] = 0
            counts[s] = 0

    return reset

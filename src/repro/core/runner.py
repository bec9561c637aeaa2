"""The unified APSP entry point: :func:`solve_apsp`.

Every algorithm of the paper is a (ordering, schedule) configuration of
the same two-phase pipeline — compute a source order, then run the
modified-Dijkstra sweep over it:

=============== ============ ================== =====================
algorithm       ordering     sweep schedule      paper reference
=============== ============ ================== =====================
``seq-basic``   none         (sequential)        Algorithm 2
``seq-opt``     selection    (sequential)        Algorithm 3
``paralg1``     none         dynamic-cyclic      §3.1 ParAlg1
``paralg2``     selection    dynamic-cyclic      Algorithm 4 ParAlg2
``parapsp``     multilists   dynamic-cyclic      Algorithm 8 ParAPSP
=============== ============ ================== =====================

Overridable knobs: the sweep ``schedule`` (Figure 1's study), the
``ordering`` (Figure 5 swaps ParBuckets/ParMax into ParAlg2), the queue
discipline, the degree kind and the Algorithm 3 ``ratio``.

Backends: ``serial`` and ``threads`` / ``process`` run for real (wall
clock); ``sim`` runs on a :class:`~repro.simx.MachineSpec` in virtual
time and is how the multi-thread figures are regenerated on this host.

Exact rows outside the in-memory solve — store shards
(:func:`solve_apsp_shards`), any source subset (:func:`solve_apsp_rows`)
and the cluster build — are all sweeps of the solver's
:class:`~repro.core.registry.ShardHooks` graph on the native kernel,
then the hooks' ``finalize``: :func:`~repro.core.dijkstra.dijkstra_rows`
for the first two, one flagless :func:`~repro.core.sweep.run_sweep` for
the cluster build, which also prices each source's op counts.  Store
shards also reuse a block of hub rows where that is bitwise exact (see
:func:`solve_apsp_shards`); the rows are the flagless ones either way.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..exceptions import NegativeWeightError
from ..graphs.csr import CSRGraph
from ..graphs.degree import degree_array, degree_order
from ..obs import metrics as _obs
from ..order import compute_order, simulate_order
from ..simx.machine import default_machine
from ..types import Backend, PhaseTimes, Schedule
from . import native
from .dijkstra import HubRows, dijkstra_rows, hub_rows
from .registry import (
    ShardHooks,
    SolverSpec,
    _REGISTRY,
    get_solver,
    register_solver,
)
from .simulate import simulate_sweep
from .state import APSPResult
from .sweep import run_sweep

__all__ = [
    "ALGORITHMS",
    "solve_apsp",
    "solve_apsp_rows",
    "solve_apsp_shards",
]

#: the solver registry under its historical name; this *is* the live
#: registry dict, so ``ALGORITHMS[name]`` sees every registered solver
ALGORITHMS: Dict[str, SolverSpec] = _REGISTRY


def _sweep_shard_hooks(graph: CSRGraph, cfg) -> ShardHooks:
    """Sweep-family exact rows: flagless sweeps of the graph itself."""
    return ShardHooks(graph)


def _register_sweep_family() -> None:
    """Register the five paper algorithms as one sweep family.

    They share one solve callable and one set of shard hooks; only
    their pipeline defaults differ.
    """
    common = dict(
        negative_weights=False,
        solve=_solve_sweep_family,
        shard_hooks=_sweep_shard_hooks,
    )
    for spec in (
        SolverSpec(
            "seq-basic",
            ordering="none",
            schedule=Schedule.DYNAMIC,
            parallel=False,
            description="Peng et al. basic APSP (Algorithm 2), sequential",
            **common,
        ),
        SolverSpec(
            "seq-opt",
            ordering="selection",
            schedule=Schedule.DYNAMIC,
            parallel=False,
            description="Peng et al. optimized APSP (Algorithm 3), "
            "sequential",
            **common,
        ),
        SolverSpec(
            "paralg1",
            ordering="none",
            schedule=Schedule.DYNAMIC,
            parallel=True,
            description="parallel basic APSP (§3.1)",
            **common,
        ),
        SolverSpec(
            "paralg2",
            ordering="selection",
            schedule=Schedule.DYNAMIC,
            parallel=True,
            description="parallel optimized APSP, sequential ordering "
            "(Algorithm 4)",
            **common,
        ),
        SolverSpec(
            "parapsp",
            ordering="multilists",
            schedule=Schedule.DYNAMIC,
            parallel=True,
            description="ParAPSP: MultiLists ordering + dynamic-cyclic "
            "sweep (Algorithm 8)",
            **common,
        ),
    ):
        register_solver(spec)


def solve_apsp(graph: CSRGraph, **options) -> APSPResult:
    """Solve all-pairs shortest paths; see the module docstring.

    ``options`` are the flat keywords of :data:`repro.config.KWARG_MAP`
    (``algorithm``, ``num_threads``, ``backend``, ``schedule``,
    ``ordering``, ``machine``, ``queue``, ``ratio``, ``degree_kind``,
    ``chunk``, ``use_flags``, ``cost_model``, ``trace``, ``fault_plan``,
    ``on_worker_death``, ``timeout``, ``max_retries``).  They are validated into a
    :class:`repro.config.SolverConfig`, whose dataclasses hold the
    defaults; a saved config runs again as
    ``solve_apsp(graph, **cfg.to_kwargs())``.  All user-input
    validation raises :class:`~repro.exceptions.ConfigError` naming the
    offending field.

    Fault tolerance: ``fault_plan`` (a :class:`repro.faults.FaultPlan`)
    injects deterministic worker faults into the sweep phase;
    ``on_worker_death`` picks the recovery policy (``"raise"`` surfaces
    a :class:`~repro.exceptions.BackendError`, ``"retry"`` re-runs only
    the lost sources, reproducing the exact distances of a fault-free
    run).  ``timeout`` / ``max_retries`` bound each process round.  On
    the SIM backend faults replay in virtual time and the recovery
    phase is visible in the trace.

    Returns an :class:`~repro.core.state.APSPResult` whose ``dist`` is
    the exact APSP matrix regardless of algorithm, backend, schedule or
    thread count.

    On a real backend every worker count claims single sources, swept
    by the native kernel where it loads (see
    :func:`repro.core.sweep.run_sweep`); ``APSPResult.sweep_kernel``
    names the kernel that ran.

    ``trace=True`` (SIM backend) makes both phases record per-event
    virtual timelines on ``sim_ordering`` / ``sim_dijkstra``, the input
    of the unified tracing layer (:mod:`repro.trace`).  Real backends
    ignore it — wall-clock tracing records :func:`repro.obs.span`
    sections through a :class:`repro.trace.TraceRecorder` instead.
    """
    from ..config import SolverConfig

    return _solve_with_config(graph, SolverConfig.from_kwargs(**options))


def _simd(kernel: str):
    """The native row merge's instruction set, if the native kernel ran."""
    return native.simd_name() if kernel == "native" else None


def _solve_with_config(graph: CSRGraph, cfg) -> APSPResult:
    """The dispatch path behind :func:`solve_apsp`.

    Resolves the registered :class:`~repro.core.registry.SolverSpec`,
    enforces the graph-level capability contract (a negative-weight
    graph needs a solver that declares ``negative_weights``) and hands
    off to the spec's solve callable.
    """
    spec = get_solver(cfg.algorithm.name)
    if graph.has_negative_weights and not spec.negative_weights:
        capable = ", ".join(
            name for name, s in ALGORITHMS.items() if s.negative_weights
        ) or "(none registered)"
        raise NegativeWeightError(
            f"graph {graph.name or 'anonymous'!r} has negative arc "
            f"weights, which solver {spec.name!r} does not support; "
            f"solvers with negative-weight support: {capable}"
        )
    return spec.solve(graph, cfg, spec)


def _solve_sweep_family(graph: CSRGraph, cfg, spec: SolverSpec) -> APSPResult:
    """``spec.solve`` of the five paper algorithms (and Johnson's inner
    phase): ordering + modified-Dijkstra sweep on the chosen backend."""
    algorithm = spec.name
    backend = Backend(cfg.parallel.backend)
    sched = (
        Schedule(cfg.algorithm.schedule)
        if cfg.algorithm.schedule is not None
        else spec.schedule
    )
    ordering_name = (
        cfg.algorithm.ordering
        if cfg.algorithm.ordering is not None
        else spec.ordering
    )
    num_threads = cfg.parallel.num_threads
    if not spec.parallel:
        # SolverConfig already rejected threads/process; SIM estimates
        # a sequential algorithm at one simulated thread
        num_threads = 1
    queue = cfg.algorithm.queue
    chunk = cfg.parallel.chunk
    use_flags = cfg.algorithm.use_flags
    cost_model = cfg.obs.cost_model
    fault_plan = cfg.faults.plan

    n = graph.num_vertices
    degrees = degree_array(graph, cfg.algorithm.degree_kind)
    ordering_kwargs = {}
    if ordering_name == "selection":
        ordering_kwargs["ratio"] = cfg.algorithm.ratio
        # the faithful O(n²) loop is the measured artefact; for plain
        # solving at larger n the fast equivalent keeps things usable
        ordering_kwargs["fast"] = n > 4000

    if backend is Backend.SIM:
        mach = cfg.parallel.machine or default_machine(num_threads)
        with _obs.span("apsp.ordering"):
            order_result = simulate_order(
                ordering_name,
                degrees,
                mach,
                num_threads=num_threads,
                trace=cfg.obs.trace,
                **ordering_kwargs,
            )
        with _obs.span("apsp.dijkstra"):
            sweep = simulate_sweep(
                graph,
                order_result.order,
                mach,
                num_threads=num_threads,
                schedule=sched,
                chunk=chunk,
                queue=queue,
                use_flags=use_flags,
                cost_model=cost_model,
                trace=cfg.obs.trace,
                fault_plan=fault_plan,
            )
        ordering_time = (
            order_result.sim.makespan if order_result.sim is not None else 0.0
        )
        result = APSPResult(
            algorithm=algorithm,
            dist=sweep.dist,
            num_threads=num_threads,
            backend=backend.value,
            schedule=sched.value,
            order=order_result.order,
            ordering_method=order_result.method,
            phase_times=PhaseTimes(
                ordering=ordering_time, dijkstra=sweep.makespan
            ),
            ops=sweep.total_ops(),
            sweep_kernel=sweep.kernel,
            sweep_simd=_simd(sweep.kernel),
            per_source_work=sweep.work_vector(cost_model),
            sim_ordering=order_result.sim,
            sim_dijkstra=sweep.outcome.result,
        )
        reg = _obs.get_registry()
        if reg is not None:
            for name, value in sweep.outcome.result.as_metrics(
                "sim.dijkstra"
            ).items():
                reg.gauge_set(name, value)
            if order_result.sim is not None:
                for name, value in order_result.sim.as_metrics(
                    "sim.ordering"
                ).items():
                    reg.gauge_set(name, value)
        return result

    # ---- real backends -------------------------------------------------
    # the ordering runs on one serial lane at every backend: the serial
    # executor runs T lanes one after another, so T > 1 only adds
    # Python overhead, and the real MultiLists order does not depend on
    # the executor or on T
    t0 = time.perf_counter()
    with _obs.span("apsp.ordering"):
        order_result = compute_order(
            ordering_name,
            degrees,
            num_threads=1,
            backend=Backend.SERIAL,
            **ordering_kwargs,
        )
    ordering_seconds = time.perf_counter() - t0
    with _obs.span("apsp.dijkstra"):
        sweep = run_sweep(
            graph,
            order_result.order,
            backend=backend,
            num_threads=num_threads,
            schedule=sched,
            chunk=chunk,
            queue=queue,
            use_flags=use_flags,
            fault_plan=fault_plan,
            on_worker_death=cfg.faults.on_worker_death,
            timeout=cfg.faults.timeout,
            max_retries=cfg.faults.max_retries,
        )
    return APSPResult(
        algorithm=algorithm,
        dist=sweep.dist,
        num_threads=num_threads,
        backend=backend.value,
        schedule=sched.value,
        order=order_result.order,
        ordering_method=order_result.method,
        phase_times=PhaseTimes(
            ordering=ordering_seconds, dijkstra=sweep.elapsed_seconds
        ),
        ops=sweep.total_ops(),
        sweep_kernel=sweep.kernel,
        sweep_simd=_simd(sweep.kernel),
        per_source_work=sweep.work_vector(cost_model),
    )


def solve_apsp_shards(graph: CSRGraph, *, shard_rows: int, **options):
    """Stream the APSP matrix as ``(start_row, rows)`` blocks.

    The out-of-core companion of :func:`solve_apsp`: shards of
    ``shard_rows`` consecutive *vertex ids* are solved one at a time
    into a single reusable ``(shard_rows, n)`` buffer, so peak memory is
    O(shard_rows × n) instead of O(n²) — this is what
    :func:`repro.serve.solve_to_store` writes to disk shard by shard.
    ``options`` are :func:`solve_apsp`'s flat keywords.

    The rows are bitwise those of the in-memory flagless solve,
    whatever ``use_flags`` says and whatever the shard size.  Each shard
    is one call of the native kernel
    :func:`~repro.core.dijkstra.dijkstra_rows` into the shard buffer
    (see :func:`solve_apsp_rows`), counted as ``sweep.native_rows``.

    Algorithm 1's reuse, under the memory bound: the first
    ``shard_rows`` vertices of the degree order (the store's landmark
    order) are hubs, their rows solved once into a second buffer of the
    shard's size, each hub merging the rows of the hubs before it
    (counted as ``sweep.hub_rows``).  A shard sweep that
    pops a hub merges its row instead of relaxing its edges, and a hub's
    own shard row is copied, so a full stream still makes n sweeps.
    Hubs are used only where every path sum is exact
    (:func:`~repro.core.dijkstra.exact_sums`: integral weights of the
    hooks' graph), so any merge order gives the flagless bits; float
    weights run flagless.

    Only the serial backend is meaningful here — the buffer is the
    memory bound, and handing it to several workers would break it.
    Yields ``(start, rows)`` with ``rows`` of shape ``(k, n)`` where the
    last shard may be short.  The yielded array is reused between
    shards: copy (or write out) before advancing the generator.
    """
    from ..exceptions import ConfigError

    if not isinstance(shard_rows, int) or isinstance(shard_rows, bool) \
            or shard_rows < 1:
        raise ConfigError(
            f"shard_rows must be an int >= 1, got {shard_rows!r}",
            field="shard_rows",
        )
    cfg, hooks = _exact_row_hooks(graph, options)
    n = graph.num_vertices
    shard_rows = min(shard_rows, max(1, n))
    hubs = hub_rows(
        hooks.graph,
        degree_order(hooks.graph, cfg.algorithm.degree_kind)[:shard_rows],
    )
    buffer = np.empty((shard_rows, n), dtype=np.float64)
    for start in range(0, n, shard_rows):
        k = min(shard_rows, n - start)
        block = buffer[:k]
        _fill_rows(hooks, np.arange(start, start + k), block, hubs)
        _obs.counter_add("serve.store.shards_solved", 1)
        yield start, block


def solve_apsp_rows(graph: CSRGraph, sources, **options) -> np.ndarray:
    """Exact distance rows ``(len(sources), n)``, one per source.

    Row ``p`` is the distances from ``sources[p]``; sources may repeat
    and come in any order.  The rows are bitwise those of
    :func:`solve_apsp_shards` (and of the in-memory flagless solve):
    one native flagless kernel call on the solver's
    :class:`~repro.core.registry.ShardHooks` graph, then its
    ``finalize`` — how :meth:`repro.serve.DistStore.repair` and
    :func:`repro.serve.apply_edge_updates` re-solve shards and landmark
    rows.  ``options`` are :func:`solve_apsp`'s flat keywords
    (``use_flags`` has no effect: the rows are flagless).  No hub rows
    are solved: for a few rows they would cost more sweeps than they
    save.
    """
    _, hooks = _exact_row_hooks(graph, options)
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    block = np.empty((len(sources), graph.num_vertices), dtype=np.float64)
    _fill_rows(hooks, sources, block)
    return block


def _exact_row_hooks(graph: CSRGraph, options):
    """Validate ``options`` for an exact-row solve and return the
    config and the solver's shard hooks.  ``use_flags`` is read but has
    no effect: :func:`_fill_rows` makes the flagless rows."""
    from ..config import SolverConfig
    from ..exceptions import ConfigError

    cfg = SolverConfig.from_kwargs(**options)
    if cfg.parallel.backend != Backend.SERIAL.value:
        raise ConfigError(
            "exact rows are solved on the serial backend (got "
            f"{cfg.parallel.backend!r}): each block is one kernel call, "
            "and the shard buffer is the memory bound",
            field="parallel.backend",
        )
    spec = get_solver(cfg.algorithm.name)
    if graph.has_negative_weights and not spec.negative_weights:
        raise NegativeWeightError(
            f"graph {graph.name or 'anonymous'!r} has negative arc "
            f"weights, which solver {spec.name!r} does not support"
        )
    return cfg, spec.shard_hooks(graph, cfg)


def _fill_rows(hooks: ShardHooks, sources: np.ndarray, block: np.ndarray,
               hubs: Optional[HubRows] = None):
    """``sources``' exact rows into ``block``: one native-kernel call.

    Each row is a flagless sweep, or one that merges the ``hubs`` rows
    of ``hooks.graph`` (in the hooks' space: ``finalize`` applies to
    ``block`` only); either way the kernel's rows are bitwise those of
    the flagless sweep (see :mod:`repro.core.dijkstra`).  The call drops
    the interpreter lock.
    """
    with _obs.span("apsp.shard"):
        dijkstra_rows(hooks.graph, sources, out=block, hubs=hubs)
        _obs.counter_add("sweep.native_rows", len(sources))
        if hooks.finalize is not None:
            hooks.finalize(sources, block)


_register_sweep_family()

# importing this module registers the non-sweep-family solver; the
# import sits below the registration machinery it depends on
from . import johnson as _johnson  # noqa: E402,F401

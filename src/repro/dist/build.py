"""Multi-node APSP build: partitioned sources, blocked assembly, faults.

:func:`simulate_distributed_apsp` answers a *scheduling* question (what
does remote row visibility cost?).  This module answers the *systems*
question the Spark-APSP study (arXiv 1902.04446) poses: partition the
source rows across ranks, solve each partition independently against
the replicated graph, and assemble the blocked distance matrix over the
network.  Concretely:

* shard ``s`` (a ``shard_rows`` block of consecutive source ids) is
  owned by rank ``s % num_nodes`` — round-robin, so the descending-
  degree head of the matrix doesn't land on one rank;
* rows come from the **same registry shard hooks** as
  :func:`repro.serve.solve_to_store`: one flagless sweep of every
  source on the hooks' graph (the native kernel where it loads, see
  :func:`repro.core.sweep.run_sweep`), then the hooks' ``finalize`` —
  every row is an independent sweep, so the assembled matrix is
  **bitwise identical** to the single-machine solve no matter how the
  shards are partitioned, recovered, or reordered;
* per-rank compute time comes from pricing each source's real
  :class:`~repro.types.OpCounts` (a row of the sweep's count matrix)
  through the cost model and playing the rank's source list on the
  ``simx`` machine (``threads_per_node`` workers, memory-contention
  multiplier included);
* assembly ships every remotely-solved shard to rank 0 as one message
  priced by :meth:`ClusterSpec.transfer_cost` (one ``latency`` plus
  ``per_element_cost`` per element — the same α–β expression as
  :meth:`ClusterSpec.row_broadcast_delay`), which is where ``network_bytes``
  and the assembly tail of the makespan come from;
* a :class:`~repro.faults.FaultPlan` is interpreted at **node
  granularity**: ``kill`` fells a rank after its m-th shard claim (its
  unfinished shards redistribute round-robin to the survivors, whose
  recovery re-solves are priced and appended to their timelines), and
  ``stall`` is a straggler — a flat virtual delay on one rank.  Because
  rows are independent, recovery is a bounded re-solve of exactly the
  lost shards and the distances come out bitwise-equal to the
  fault-free build (the test suite and the dist bench assert this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.costs import DEFAULT_COST_MODEL, DijkstraCostModel
from ..core.registry import get_solver
from ..core.sweep import run_sweep
from ..exceptions import FaultPlanError, NegativeWeightError, SimulationError
from ..faults.plan import KILL, STALL, FaultPlan
from ..graphs.csr import CSRGraph
from ..simx.parfor import simulate_parallel_for
from ..types import Schedule
from .cluster import ClusterSpec

__all__ = ["ClusterBuildResult", "solve_apsp_cluster"]


@dataclass
class ClusterBuildResult:
    """Outcome of one simulated multi-node APSP build."""

    dist: np.ndarray
    cluster: ClusterSpec
    shard_rows: int
    #: virtual end-to-end time: slowest rank (compute + recovery +
    #: straggler delay) plus the blocked assembly at rank 0
    makespan: float
    #: bytes shipped to the assembly rank (8 per remote element)
    network_bytes: int
    #: time of the assembly (network) phase alone
    assembly_time: float
    #: total priced algorithmic work across all ranks
    total_work: float
    #: per-rank summaries: sources solved, compute/recovery makespans
    per_rank: List[Dict[str, Any]] = field(default_factory=list)
    #: ranks felled by the fault plan
    lost_ranks: Tuple[int, ...] = ()
    #: shards whose owner died, mapped to the surviving rank that
    #: re-solved them
    recovered_by: Dict[int, int] = field(default_factory=dict)

    @property
    def num_shards(self) -> int:
        n = self.dist.shape[0]
        return (n + self.shard_rows - 1) // self.shard_rows

    def to_summary(self) -> Dict[str, Any]:
        """JSON-ready summary (CLI ``--json``, the dist bench)."""
        return {
            "cluster": self.cluster.name,
            "num_nodes": self.cluster.num_nodes,
            "threads_per_node": self.cluster.threads_per_node,
            "shard_rows": self.shard_rows,
            "num_shards": self.num_shards,
            "makespan": self.makespan,
            "assembly_time": self.assembly_time,
            "network_bytes": self.network_bytes,
            "total_work": self.total_work,
            "lost_ranks": list(self.lost_ranks),
            "recovered_shards": len(self.recovered_by),
            "per_rank": self.per_rank,
        }


def _node_fault_schedule(
    plan: Optional[FaultPlan],
    cluster: ClusterSpec,
    rank_shards: List[List[int]],
) -> Tuple[Dict[int, int], Dict[int, float]]:
    """Interpret a fault plan at node granularity.

    Returns ``(kill_after, stall_delay)``: rank → shard claims survived
    before dying, and rank → extra straggler delay.  Only ``kill`` and
    ``stall`` make sense for whole nodes; other kinds are rejected
    loudly rather than silently dropped.
    """
    kill_after: Dict[int, int] = {}
    stall_delay: Dict[int, float] = {}
    if plan is None:
        return kill_after, stall_delay
    bound = plan.bind(cluster.num_nodes)
    for spec in bound.faults:
        if spec.round != 0:
            continue  # the cluster build has no retry rounds
        if spec.kind == KILL:
            prev = kill_after.get(spec.worker)
            claims = spec.after_claims
            kill_after[spec.worker] = (
                claims if prev is None else min(prev, claims)
            )
        elif spec.kind == STALL:
            stall_delay[spec.worker] = (
                stall_delay.get(spec.worker, 0.0) + spec.seconds
            )
        else:
            raise FaultPlanError(
                f"node-granularity fault plans support kill/stall, "
                f"got {spec.kind!r}"
            )
    if len(kill_after) >= cluster.num_nodes:
        raise FaultPlanError(
            "fault plan kills every rank; nothing can recover the build"
        )
    return kill_after, stall_delay


def solve_apsp_cluster(
    graph: CSRGraph,
    cluster: ClusterSpec,
    *,
    shard_rows: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    cost_model: DijkstraCostModel = DEFAULT_COST_MODEL,
    schedule: "Schedule | str" = Schedule.DYNAMIC,
    **options,
) -> ClusterBuildResult:
    """Solve APSP as a simulated multi-node build (see module docstring).

    The distance matrix is exact and bitwise-identical to
    ``solve_apsp(graph, use_flags=False)`` regardless of the cluster
    geometry or injected faults; the cluster only decides the *virtual
    cost* side of the result.  Solver selection, validation and row
    production all go through the registry (``options`` are
    :func:`repro.solve_apsp`'s flat keywords, exactly as in
    :func:`repro.core.runner.solve_apsp_shards`), so Johnson
    rank-partitions the same way the sweep family does.
    """
    from ..config import SolverConfig

    n = graph.num_vertices
    if n < 1:
        raise SimulationError("cluster build needs a non-empty graph")
    if shard_rows is None:
        # ~4 claim-sized shards per rank: enough granularity for the
        # round-robin and for kill recovery to be visibly bounded
        shard_rows = max(1, math.ceil(n / (cluster.num_nodes * 4)))
    if not isinstance(shard_rows, int) or isinstance(shard_rows, bool) \
            or shard_rows < 1:
        raise SimulationError(
            f"shard_rows must be an int >= 1, got {shard_rows!r}"
        )

    # independence of rows is what makes partitioning and recovery
    # bitwise-exact; the per-rank solve is serial per worker anyway
    cfg = SolverConfig.from_kwargs(**options).with_overrides(
        use_flags=False, backend="serial"
    )

    spec = get_solver(cfg.algorithm.name)
    if graph.has_negative_weights and not spec.negative_weights:
        raise NegativeWeightError(
            f"graph {graph.name or 'anonymous'!r} has negative arc "
            f"weights, which solver {spec.name!r} does not support"
        )
    hooks = spec.shard_hooks(graph, cfg)

    num_shards = (n + shard_rows - 1) // shard_rows
    rank_shards: List[List[int]] = [
        [] for _ in range(cluster.num_nodes)
    ]
    for s in range(num_shards):
        rank_shards[s % cluster.num_nodes].append(s)
    kill_after, stall_delay = _node_fault_schedule(
        fault_plan, cluster, rank_shards
    )

    # ---- solve every row once: rows are independent, so owners and
    # recoverers produce the same bytes; compute is shared and each
    # source's priced op counts are attributed to ranks below
    sources = np.arange(n)
    sweep = run_sweep(
        hooks.graph, sources, use_flags=False, queue=cfg.algorithm.queue
    )
    dist = sweep.dist
    if hooks.finalize is not None:
        hooks.finalize(sources, dist)
    source_cost = sweep.work_vector(cost_model)

    # ---- timeline: who solved what, and when they were done
    completed: List[List[int]] = []
    lost_shards: List[int] = []
    lost_ranks: List[int] = []
    for rank, shards in enumerate(rank_shards):
        claims = kill_after.get(rank)
        if claims is None or claims - 1 >= len(shards):
            completed.append(list(shards))
            continue
        lost_ranks.append(rank)
        completed.append(shards[: claims - 1])
        lost_shards.extend(shards[claims - 1:])
    survivors = [
        r for r in range(cluster.num_nodes) if r not in lost_ranks
    ]
    recovered_by: Dict[int, int] = {}
    recovery: List[List[int]] = [[] for _ in range(cluster.num_nodes)]
    for i, s in enumerate(sorted(lost_shards)):
        target = survivors[i % len(survivors)]
        recovered_by[s] = target
        recovery[target].append(s)

    multiplier = cluster.node.memory_cost_multiplier(
        cluster.threads_per_node
    )

    def rank_makespan(shards: List[int]) -> float:
        costs = np.concatenate(
            [
                source_cost[s * shard_rows:min((s + 1) * shard_rows, n)]
                for s in shards
            ]
        ) if shards else np.empty(0)
        if not len(costs):
            return 0.0
        outcome = simulate_parallel_for(
            len(costs),
            costs,
            cluster.node,
            num_threads=min(cluster.threads_per_node, len(costs)),
            schedule=schedule,
            cost_multiplier=multiplier,
        )
        return float(outcome.result.makespan)

    per_rank: List[Dict[str, Any]] = []
    finish = np.zeros(cluster.num_nodes, dtype=np.float64)
    for rank in range(cluster.num_nodes):
        base = rank_makespan(completed[rank])
        # recovery work is conservatively serialized after the
        # survivor's own partition (failure detection + re-issue)
        extra = rank_makespan(recovery[rank])
        delay = stall_delay.get(rank, 0.0)
        finish[rank] = base + extra + delay
        per_rank.append(
            {
                "rank": rank,
                "shards": len(completed[rank]),
                "recovered": len(recovery[rank]),
                "compute": base,
                "recovery": extra,
                "stall": delay,
                "lost": rank in lost_ranks,
            }
        )

    # ---- blocked assembly at rank 0: every remotely-solved shard ships
    # its rows over the α–β network; rank 0 ingress serializes them
    solved_on: Dict[int, int] = {}
    for rank in range(cluster.num_nodes):
        for s in completed[rank]:
            solved_on[s] = rank
        for s in recovery[rank]:
            solved_on[s] = rank
    assembly_time = 0.0
    network_bytes = 0
    for s in range(num_shards):
        if solved_on[s] == 0:
            continue
        elements = min(shard_rows, n - s * shard_rows) * n
        assembly_time += cluster.transfer_cost(elements)
        network_bytes += 8 * elements
    makespan = float(finish.max()) + assembly_time

    return ClusterBuildResult(
        dist=dist,
        cluster=cluster,
        shard_rows=shard_rows,
        makespan=makespan,
        network_bytes=network_bytes,
        assembly_time=assembly_time,
        total_work=float(source_cost.sum()),
        per_rank=per_rank,
        lost_ranks=tuple(lost_ranks),
        recovered_by=recovered_by,
    )

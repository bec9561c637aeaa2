"""repro — ParAPSP: Efficient Parallel All-Pairs Shortest Paths for
Complex Graph Analysis (Kim, Choi & Bae, ICPP'18 Companion).

Reproduction of the paper's full system: Peng et al.'s modified-Dijkstra
APSP family (basic, optimized), its shared-memory parallelisations
(ParAlg1, ParAlg2, **ParAPSP**), the parallel degree-ordering procedures
(ParBuckets, ParMax, MultiLists), a general bounded-key parallel sort,
and — since this host has one core — a discrete-event simulated
multicore machine that regenerates every table and figure of the
evaluation (see DESIGN.md).

Quickstart::

    from repro import load_dataset, solve_apsp
    graph = load_dataset("WordNet")
    result = solve_apsp(graph, algorithm="parapsp",
                        num_threads=16, backend="sim")
    result.dist            # exact APSP matrix
    result.phase_times     # ordering vs Dijkstra-phase breakdown

A run saved as JSON (:class:`SolverConfig`, ``repro-apsp solve
--save-config``) runs again through its flat keywords::

    from repro import load_config
    result = solve_apsp(graph, **load_config("run.json").to_kwargs())

Serving queries out-of-core (see ``docs/serving.md``)::

    from repro import DistStore, QueryEngine, solve_to_store
    store = solve_to_store(graph, "apsp_store", shard_rows=256)
    engine = QueryEngine(store, cache_shards=8)
    engine.dist(3, 250)    # point query through the LRU shard cache

Multi-node: sharded serving and simulated cluster builds (see
``docs/distributed.md``)::

    from repro import RoutedEngine, ShardRouter, solve_apsp_cluster
    router = ShardRouter(4, replication=2)     # consistent-hash ring
    routed = RoutedEngine(store, router)       # same answers, N nodes
    from repro.dist import CLUSTER_FAST
    build = solve_apsp_cluster(graph, CLUSTER_FAST)   # exact + costed
"""

from ._version import __version__
from .config import (
    ServeConfig,
    SolverConfig,
    StoreConfig,
    load_config,
    load_serve_config,
)
from .core import (
    ShardHooks,
    SolverSpec,
    apsp_with_paths,
    get_solver,
    par_alg1,
    par_alg2,
    par_apsp,
    register_solver,
    seq_adaptive,
    seq_basic,
    seq_optimized,
    solve_apsp,
    solve_apsp_rows,
    solve_apsp_shards,
    solver_names,
)
from .exceptions import NegativeCycleError, NegativeWeightError
from .dist import ClusterSpec, simulate_distributed_apsp, solve_apsp_cluster
from .core.state import APSPResult
from .faults import FaultPlan, StoreCorruptionSpec
from .graphs import CSRGraph, from_edges, load_dataset
from .order import compute_order, simulate_order
from .serve import (
    DistStore,
    EdgeUpdate,
    QueryEngine,
    RoutedEngine,
    ServeFrontend,
    ShardRouter,
    apply_edge_updates,
    solve_to_store,
)
from .simx import MACHINE_I, MACHINE_II, MachineSpec
from .sort import counting_argsort, multilists_argsort
from .trace import Trace
from .types import Backend, Schedule

__all__ = [
    "__version__",
    "apsp_with_paths",
    "par_alg1",
    "par_alg2",
    "par_apsp",
    "seq_adaptive",
    "seq_basic",
    "seq_optimized",
    "solve_apsp",
    "solve_apsp_rows",
    "solve_apsp_shards",
    "SolverSpec",
    "ShardHooks",
    "register_solver",
    "get_solver",
    "solver_names",
    "NegativeCycleError",
    "NegativeWeightError",
    "ServeConfig",
    "SolverConfig",
    "StoreConfig",
    "load_config",
    "load_serve_config",
    "ClusterSpec",
    "simulate_distributed_apsp",
    "solve_apsp_cluster",
    "APSPResult",
    "FaultPlan",
    "StoreCorruptionSpec",
    "CSRGraph",
    "from_edges",
    "load_dataset",
    "compute_order",
    "simulate_order",
    "DistStore",
    "QueryEngine",
    "RoutedEngine",
    "ServeFrontend",
    "ShardRouter",
    "solve_to_store",
    "EdgeUpdate",
    "apply_edge_updates",
    "MACHINE_I",
    "MACHINE_II",
    "MachineSpec",
    "counting_argsort",
    "multilists_argsort",
    "Trace",
    "Backend",
    "Schedule",
]

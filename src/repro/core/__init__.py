"""The paper's core contribution: modified-Dijkstra APSP, sequential
and parallel, on real backends and on the simulated machine."""

from .calibrate import CalibrationSample, fit_cost_model, measure_sweeps
from .costs import DEFAULT_COST_MODEL, DijkstraCostModel
from .dijkstra import dijkstra_rows, dijkstra_sssp
from .kernels import merge_row, relax_edges
from .modified_dijkstra import modified_dijkstra_sssp
from .registry import (
    ShardHooks,
    SolverSpec,
    get_solver,
    register_solver,
    solver_names,
)
from .adaptive import seq_adaptive
from .basic import seq_basic
from .optimized import seq_optimized
from .paths import PathResult, apsp_with_paths, reconstruct_path, verify_predecessors
from .par_alg1 import par_alg1
from .par_alg2 import par_alg2
from .par_apsp import par_apsp
from .runner import (
    ALGORITHMS,
    solve_apsp,
    solve_apsp_rows,
    solve_apsp_shards,
)
from .johnson import (
    bellman_ford_apsp,
    bellman_ford_potentials,
    bellman_ford_sssp,
    reweight_graph,
)
from .simulate import SimulatedSweep, simulate_sweep
from .state import APSPResult, APSPState, new_state
from .sweep import SweepOutcome, run_sweep
from .verify import verify_apsp

__all__ = [
    "CalibrationSample",
    "fit_cost_model",
    "measure_sweeps",
    "DEFAULT_COST_MODEL",
    "DijkstraCostModel",
    "dijkstra_rows",
    "dijkstra_sssp",
    "merge_row",
    "relax_edges",
    "modified_dijkstra_sssp",
    "seq_adaptive",
    "seq_basic",
    "seq_optimized",
    "PathResult",
    "apsp_with_paths",
    "reconstruct_path",
    "verify_predecessors",
    "par_alg1",
    "par_alg2",
    "par_apsp",
    "ALGORITHMS",
    "SolverSpec",
    "ShardHooks",
    "register_solver",
    "get_solver",
    "solver_names",
    "bellman_ford_potentials",
    "bellman_ford_sssp",
    "bellman_ford_apsp",
    "reweight_graph",
    "solve_apsp",
    "solve_apsp_rows",
    "solve_apsp_shards",
    "SimulatedSweep",
    "simulate_sweep",
    "APSPResult",
    "APSPState",
    "new_state",
    "SweepOutcome",
    "run_sweep",
    "verify_apsp",
]

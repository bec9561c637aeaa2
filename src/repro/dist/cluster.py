"""Cluster model for the distributed-memory extension (paper §7).

The paper's future work: "extend the ParAPSP algorithm on
distributed-memory parallel environments so that we could find APSP
solutions for much larger graphs."  This package explores that design
in simulation: a cluster of shared-memory nodes (each one a
:class:`~repro.simx.MachineSpec`) connected by a network with
latency/bandwidth costs expressed in the same work-unit currency.

The communication pattern the algorithm needs is single-producer
broadcast: when a rank finishes a row of D, the row becomes usable by
*other* ranks only after one row-broadcast delay.  That delay is the
lever that makes distributed reuse strictly weaker than shared-memory
reuse — the quantitative question the simulation answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import SimulationError
from ..simx.machine import MACHINE_I, MachineSpec

__all__ = ["ClusterSpec", "CLUSTER_FAST", "CLUSTER_COMMODITY"]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of shared-memory nodes.

    Attributes
    ----------
    num_nodes:
        MPI ranks; each runs ``threads_per_node`` workers.
    threads_per_node:
        Shared-memory workers per rank (≤ the node's cores).
    node:
        The per-node machine model.
    latency:
        Per-message start-up cost in work units (the α of the α-β
        model).
    per_element_cost:
        Transfer cost per distance-row element (β·8 bytes in work
        units).
    """

    name: str
    num_nodes: int
    threads_per_node: int
    node: MachineSpec = MACHINE_I
    latency: float = 8_000.0
    per_element_cost: float = 1.2

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise SimulationError("cluster needs >= 1 node")
        if self.threads_per_node < 1:
            raise SimulationError("need >= 1 thread per node")
        if self.threads_per_node > self.node.num_cores:
            raise SimulationError(
                f"{self.threads_per_node} threads exceed the node's "
                f"{self.node.num_cores} cores"
            )
        if self.latency < 0 or self.per_element_cost < 0:
            raise SimulationError("communication costs must be >= 0")

    @property
    def total_workers(self) -> int:
        return self.num_nodes * self.threads_per_node

    def rank_of_worker(self, worker: int) -> int:
        return worker // self.threads_per_node

    def transfer_cost(self, elements: int) -> float:
        """α–β price of one message of ``elements`` distance entries:
        one ``latency`` plus ``per_element_cost`` per element.  The one
        network expression behind both the row broadcast and the
        cluster build's assembly."""
        return self.latency + self.per_element_cost * elements

    def row_broadcast_delay(self, n: int) -> float:
        """Time until a finished n-element row is visible on remote
        ranks (tree broadcast: one α plus the pipelined transfer)."""
        if self.num_nodes == 1:
            return 0.0
        return self.transfer_cost(n)

    def row_broadcast_bytes(self, n: int) -> int:
        """Network bytes moved per finished row (float64 elements to
        every other rank)."""
        return 8 * n * (self.num_nodes - 1)


#: low-latency interconnect (InfiniBand-class)
CLUSTER_FAST = ClusterSpec(
    name="fast-interconnect",
    num_nodes=4,
    threads_per_node=16,
    latency=4_000.0,
    per_element_cost=0.6,
)

#: commodity ethernet-class network
CLUSTER_COMMODITY = ClusterSpec(
    name="commodity-network",
    num_nodes=4,
    threads_per_node=16,
    latency=40_000.0,
    per_element_cost=6.0,
)

"""Cluster: a collection of nodes with a factory for the paper's testbed.

The paper's Table 2 testbed is exposed as :func:`paper_cluster` and is the
default substrate for every experiment driver under
:mod:`repro.experiments`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from .node import (
    I5_9400,
    I5_10400,
    XEON_BRONZE_3204,
    DiskType,
    Node,
    NodeRole,
)


class Cluster:
    """A named set of :class:`~repro.cluster.node.Node` objects.

    The cluster exposes aggregate capacity queries used by NoStop to derive
    the feasible range for the executor-count parameter (paper §5.1).
    """

    def __init__(self, nodes: Iterable[Node], name: str = "cluster") -> None:
        self.name = name
        self._nodes: List[Node] = list(nodes)
        ids = [n.node_id for n in self._nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in cluster: {sorted(ids)}")
        if not self._nodes:
            raise ValueError("cluster must contain at least one node")

    # -- structure ----------------------------------------------------------

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes)

    @property
    def workers(self) -> List[Node]:
        return [n for n in self._nodes if n.role is NodeRole.WORKER]

    def node(self, node_id: int) -> Node:
        for n in self._nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(f"no node with id {node_id} in cluster {self.name!r}")

    # -- capacity -----------------------------------------------------------

    @property
    def total_executor_capacity(self) -> int:
        """Maximum number of 1-core executors the cluster can host.

        This bounds ``Max_Executors`` in NoStop's configuration range.
        """
        return sum(n.executor_capacity for n in self.workers)

    @property
    def total_cores(self) -> int:
        return sum(n.cpu.cores for n in self._nodes)

    def is_heterogeneous(self) -> bool:
        """True if worker nodes differ in speed or disk technology."""
        speeds = {n.speed_factor for n in self.workers}
        disks = {n.disk for n in self.workers}
        return len(speeds) > 1 or len(disks) > 1


def paper_cluster() -> Cluster:
    """Build the heterogeneous five-node testbed of the paper's Table 2.

    ======= ========================= ===== ========
    Node ID CPU                       Disk  Type
    ======= ========================= ===== ========
    1       I5-9400 2.9 GHz           SSD   Master
    2       I5-9400 2.9 GHz           SSD   Worker
    3       Xeon Bronze 3204 1.9 GHz  HDD   Worker
    4       I5-10400 2.9 GHz          HDD   Worker
    5       I5-10400 2.9 GHz          HDD   Worker
    ======= ========================= ===== ========

    Worker memory is sized so that the paper's executor range (up to 20
    executors of 1 core / 1 GB) fits: the four workers expose
    6 + 6 + 12 + 12 = 36 cores in total.
    """
    return Cluster(
        [
            Node(1, I5_9400, DiskType.SSD, NodeRole.MASTER, memory_gb=16),
            Node(2, I5_9400, DiskType.SSD, NodeRole.WORKER, memory_gb=16),
            Node(3, XEON_BRONZE_3204, DiskType.HDD, NodeRole.WORKER, memory_gb=16),
            Node(4, I5_10400, DiskType.HDD, NodeRole.WORKER, memory_gb=32),
            Node(5, I5_10400, DiskType.HDD, NodeRole.WORKER, memory_gb=32),
        ],
        name="paper-testbed",
    )


def homogeneous_cluster(
    workers: int = 4, cores_per_node: int = 8, memory_gb: float = 16.0
) -> Cluster:
    """Build a uniform cluster, useful for tests and controlled ablations."""
    if workers < 1:
        raise ValueError("need at least one worker")
    nodes = [Node(1, I5_9400, DiskType.SSD, NodeRole.MASTER, memory_gb=memory_gb)]
    for i in range(workers):
        spec = I5_9400
        if cores_per_node != spec.cores:
            from .node import CpuSpec

            spec = CpuSpec(
                model=spec.model,
                clock_ghz=spec.clock_ghz,
                cores=cores_per_node,
                speed_factor=spec.speed_factor,
            )
        nodes.append(
            Node(i + 2, spec, DiskType.SSD, NodeRole.WORKER, memory_gb=memory_gb)
        )
    return Cluster(nodes, name="homogeneous")

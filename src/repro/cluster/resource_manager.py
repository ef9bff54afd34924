"""Dynamic executor allocation.

The resource manager plays the role of Spark's standalone master plus the
dynamic-allocation hooks the paper added to Spark: NoStop asks for a target
executor count at runtime and the manager launches or decommissions
executors to meet it, spreading them across worker nodes round-robin (the
same spreading behaviour as Spark standalone's default ``spreadOut``).

Newly launched executors are uninitialized — the engine charges them a
one-time startup cost on their first task, which surfaces in the first
batch after a reconfiguration (the batch NoStop's metric collector
discards, §5.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs import catalog
from repro.obs.registry import NOOP_REGISTRY, MetricsRegistry

from .cluster import Cluster
from .executor import (
    DEFAULT_EXECUTOR_CORES,
    DEFAULT_EXECUTOR_MEMORY_GB,
    Executor,
)
from .node import Node


class InsufficientResourcesError(RuntimeError):
    """Raised when the cluster cannot host the requested executor count."""


class ResourceManager:
    """Launch and decommission executors on a :class:`Cluster`.

    Parameters
    ----------
    cluster:
        The cluster to manage.
    executor_cores, executor_memory_gb:
        Fixed per-executor sizing (the paper fixes 1 core / 1 GB and only
        varies the *count*).
    """

    def __init__(
        self,
        cluster: Cluster,
        executor_cores: int = DEFAULT_EXECUTOR_CORES,
        executor_memory_gb: float = DEFAULT_EXECUTOR_MEMORY_GB,
    ) -> None:
        self.cluster = cluster
        self.executor_cores = executor_cores
        self.executor_memory_gb = executor_memory_gb
        self._executors: Dict[int, Executor] = {}
        self._next_id = 1
        #: number of reconfigurations performed (for overhead accounting)
        self.reconfigurations = 0
        #: unplanned executor losses injected via :meth:`fail_executor`
        self.executor_failures = 0
        self.instrument(NOOP_REGISTRY)

    def instrument(self, registry: MetricsRegistry) -> None:
        """Bind telemetry instruments (no-op registry by default).

        ``scale_ops`` is a labeled family (``direction``: up/down) so
        dashboards can separate growth from shrink; both children are
        bound eagerly since the schema is a closed two-value set.
        """
        self._m_executors = catalog.instrument(
            registry, "repro_cluster_executors"
        )
        scale_ops = catalog.instrument(
            registry, "repro_cluster_scale_ops_total"
        )
        self._m_scale_up = scale_ops.labels(direction="up")
        self._m_scale_down = scale_ops.labels(direction="down")
        self._m_failures = catalog.instrument(
            registry, "repro_cluster_executor_failures_total"
        )

    # -- queries --------------------------------------------------------

    @property
    def executors(self) -> List[Executor]:
        """Live executors, in launch order."""
        return [self._executors[k] for k in sorted(self._executors)]

    @property
    def executor_count(self) -> int:
        return len(self._executors)

    @property
    def max_executors(self) -> int:
        """Upper bound on executor count for this cluster and sizing.

        This is the ``Max_Executors`` of the paper's configuration range
        (§5.1), derived from cluster capacity and per-executor resources.
        """
        total = 0
        for node in self.cluster.workers:
            by_cores = node.executor_capacity // self.executor_cores
            by_mem = int(node.memory_gb // self.executor_memory_gb)
            total += min(by_cores, by_mem)
        return total

    @property
    def available_capacity(self) -> int:
        """Executors that could still be launched right now.

        Unlike :attr:`max_executors` this accounts for resources already
        allocated and for offline nodes, so ``scale_to`` can verify an
        upscale atomically before launching anything.
        """
        total = 0
        for node in self.cluster.workers:
            if not node.can_host(self.executor_cores, self.executor_memory_gb):
                continue
            by_cores = node.free_cores // self.executor_cores
            by_mem = int(node.free_memory_gb // self.executor_memory_gb)
            total += min(by_cores, by_mem)
        return total

    def capacity_with(
        self, cores: int, memory_gb: Optional[float] = None
    ) -> int:
        """Hypothetical pool size the cluster could host at a given
        per-executor sizing, counting this manager's own allocations as
        free (a full-pool relaunch releases them first).

        Offline nodes contribute nothing: executors stranded on a node
        that went down mid-outage cannot be re-placed there.
        """
        if cores < 1:
            raise ValueError(f"executor cores must be >= 1, got {cores}")
        memory_gb = self.executor_memory_gb if memory_gb is None else memory_gb
        mine_cores: Dict[int, int] = {}
        mine_mem: Dict[int, float] = {}
        for e in self._executors.values():
            mine_cores[e.node.node_id] = (
                mine_cores.get(e.node.node_id, 0) + e.cores
            )
            mine_mem[e.node.node_id] = (
                mine_mem.get(e.node.node_id, 0.0) + e.memory_gb
            )
        total = 0
        for node in self.cluster.workers:
            if not node.online:
                continue
            free_cores = node.free_cores + mine_cores.get(node.node_id, 0)
            free_mem = node.free_memory_gb + mine_mem.get(node.node_id, 0.0)
            total += min(free_cores // cores, int(free_mem // memory_gb))
        return total

    # -- allocation -------------------------------------------------------

    def _pick_node(self) -> Optional[Node]:
        """Least-loaded worker that can host one more executor.

        Ties break toward the fastest node, mirroring how a real
        standalone master spreads executors over registered workers.
        """
        candidates = [
            n
            for n in self.cluster.workers
            if n.can_host(self.executor_cores, self.executor_memory_gb)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda n: (n.used_cores, -n.speed_factor))

    def launch_executor(self, now: float = 0.0) -> Executor:
        """Launch one executor on the least-loaded worker."""
        node = self._pick_node()
        if node is None:
            raise InsufficientResourcesError(
                f"cluster {self.cluster.name!r} cannot host another "
                f"{self.executor_cores}-core/{self.executor_memory_gb}GB executor "
                f"({self.executor_count} running, max {self.max_executors})"
            )
        node.allocate(self.executor_cores, self.executor_memory_gb)
        executor = Executor(
            executor_id=self._next_id,
            node=node,
            cores=self.executor_cores,
            memory_gb=self.executor_memory_gb,
            launched_at=now,
        )
        self._next_id += 1
        self._executors[executor.executor_id] = executor
        return executor

    def _launch_many(self, count: int, now: float) -> None:
        """Launch ``count`` executors with bit-identical placement to
        ``count`` sequential :meth:`launch_executor` calls.

        The sequential path rescans every worker per launch —
        O(count x nodes), which dominates context construction on
        thousand-node clusters.  A lazy heap keyed
        ``(used_cores, -speed_factor, worker_index)`` reproduces the
        same pick sequence (``min`` over the worker list breaks ties by
        list position, exactly the index tie-break) in
        O((count + nodes) log nodes).
        """
        import heapq

        cores = self.executor_cores
        mem = self.executor_memory_gb
        heap = [
            (n.used_cores, -n.speed_factor, idx, n)
            for idx, n in enumerate(self.cluster.workers)
            if n.can_host(cores, mem)
        ]
        heapq.heapify(heap)
        launched = 0
        while launched < count:
            if not heap:
                raise InsufficientResourcesError(
                    f"cluster {self.cluster.name!r} cannot host another "
                    f"{cores}-core/{mem}GB executor "
                    f"({self.executor_count} running, "
                    f"max {self.max_executors})"
                )
            used, neg_speed, idx, node = heapq.heappop(heap)
            if used != node.used_cores:
                # Stale entry: re-key and retry.
                if node.can_host(cores, mem):
                    heapq.heappush(
                        heap, (node.used_cores, neg_speed, idx, node)
                    )
                continue
            node.allocate(cores, mem)
            executor = Executor(
                executor_id=self._next_id,
                node=node,
                cores=cores,
                memory_gb=mem,
                launched_at=now,
            )
            self._next_id += 1
            self._executors[executor.executor_id] = executor
            launched += 1
            if node.can_host(cores, mem):
                heapq.heappush(heap, (node.used_cores, neg_speed, idx, node))

    def remove_executor(self, executor_id: int) -> None:
        """Decommission one executor and release its node resources."""
        executor = self._executors.pop(executor_id, None)
        if executor is None:
            raise KeyError(f"no executor with id {executor_id}")
        executor.node.release(executor.cores, executor.memory_gb)

    def fail_executor(self, executor_id: Optional[int] = None) -> int:
        """Kill one executor (crash injection); returns its id.

        Unlike :meth:`remove_executor` this models an *unplanned* loss:
        the pool silently shrinks until the next ``scale_to`` call
        restores the target count — which NoStop's next configuration
        application does automatically, making the scheme transparent to
        infrastructure churn.
        """
        if not self._executors:
            raise RuntimeError("no executors to fail")
        if executor_id is None:
            executor_id = max(self._executors)  # newest dies first
        self.remove_executor(executor_id)
        self.executor_failures += 1
        self._m_failures.inc()
        self._m_executors.set(self.executor_count)
        return executor_id

    def scale_to(self, target: int, now: float = 0.0) -> int:
        """Adjust the executor count to ``target``; returns the delta.

        Removal takes the most recently launched executors first (they are
        least likely to hold cached state).  Raises
        :class:`InsufficientResourcesError` if the target exceeds cluster
        capacity.
        """
        if target < 0:
            raise ValueError(f"target executor count must be >= 0, got {target}")
        if target > self.max_executors:
            raise InsufficientResourcesError(
                f"target {target} exceeds cluster capacity {self.max_executors}"
            )
        delta = target - self.executor_count
        if delta > 0:
            # Atomic pre-check: verify the whole upscale fits before
            # launching anything, so a capacity shortfall (e.g. a chaos
            # node outage holding resources) cannot leave a partially
            # applied configuration behind.
            if delta > self.available_capacity:
                raise InsufficientResourcesError(
                    f"cluster {self.cluster.name!r} can host only "
                    f"{self.available_capacity} more executors, "
                    f"need {delta} to reach target {target}"
                )
            self._launch_many(delta, now)
        elif delta < 0:
            victims = sorted(
                self._executors.values(),
                key=lambda e: (e.launched_at, e.executor_id),
                reverse=True,
            )[: -delta]
            for v in victims:
                self.remove_executor(v.executor_id)
        if delta != 0:
            self.reconfigurations += 1
            (self._m_scale_up if delta > 0 else self._m_scale_down).inc()
        self._m_executors.set(self.executor_count)
        return delta

    def resize_cores(
        self, cores: int, now: float = 0.0, target: Optional[int] = None
    ) -> int:
        """Relaunch the pool with a new per-executor core count.

        Changing ``spark.executor.cores`` cannot be applied to a running
        executor: the whole pool is decommissioned and relaunched at the
        new sizing (fresh executors pay the startup charge on their
        first task, surfacing the real cost of a core resize).
        ``target`` is the pool size after the resize (default: the
        current count, letting callers combine a resize with a scale in
        one transactional step).

        An atomic pre-check against :meth:`capacity_with` makes the
        operation transactional: on
        :class:`InsufficientResourcesError` nothing has changed.
        Returns the resulting pool size.
        """
        if cores < 1:
            raise ValueError(f"executor cores must be >= 1, got {cores}")
        target = self.executor_count if target is None else target
        if target < 0:
            raise ValueError(
                f"target executor count must be >= 0, got {target}"
            )
        if cores == self.executor_cores:
            self.scale_to(target, now)
            return self.executor_count
        if target > self.capacity_with(cores):
            raise InsufficientResourcesError(
                f"cluster {self.cluster.name!r} cannot host {target} "
                f"{cores}-core executors "
                f"(capacity {self.capacity_with(cores)})"
            )
        for executor_id in list(self._executors):
            self.remove_executor(executor_id)
        self.executor_cores = cores
        self._launch_many(target, now)
        self.reconfigurations += 1
        self._m_executors.set(self.executor_count)
        return self.executor_count

"""Fault injectors: what a chaos event does to the running system.

Each injector is a small, idempotent pair of actions — ``inject`` at the
firing boundary, ``recover`` when the event's duration elapses — applied
against a live :class:`~repro.streaming.context.StreamingContext`.  They
reach every layer of the simulated stack:

========================  =====================================================
injector                  layer exercised
========================  =====================================================
:class:`ExecutorCrash`    cluster — ``ResourceManager.fail_executor`` with the
                          freed slot optionally held hostage (delayed recovery)
:class:`NodeOutage`       cluster — a whole node offline, all its executors die
:class:`StragglerSlowdown` engine — an executor's service rate degrades
:class:`BrokerOutage`     kafka/streaming — fetches stall, backlog bursts back
:class:`DataSkewBurst`    datagen — offered rate multiplied for a window
========================  =====================================================

Injectors never kill the last live executor: a fully dead pool has no
recovery story for a configuration optimizer (the scheduler would simply
raise), and the paper's churn claims are about *degraded*, not *absent*,
infrastructure.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kafka.broker import KafkaBroker
    from repro.streaming.context import StreamingContext


class Injector(abc.ABC):
    """Inject a fault into a streaming context, and undo it later."""

    @abc.abstractmethod
    def inject(
        self, context: "StreamingContext", now: float, rng: np.random.Generator
    ) -> str:
        """Apply the fault at simulation time ``now``.

        Returns a short human-readable detail string for the event log
        (e.g. which executor died) — it must be deterministic given the
        rng so chaos reports replay byte-identically.
        """

    @abc.abstractmethod
    def recover(self, context: "StreamingContext", now: float) -> None:
        """Undo the fault at simulation time ``now`` (idempotent)."""

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass
class ExecutorCrash(Injector):
    """Crash ``count`` executors; optionally hold their slots hostage.

    With ``hold_slot=True`` (default) the crashed machine's capacity
    stays unavailable until the event recovers, so a NoStop configuration
    application asking for the full pool *fails* — exercising the
    guarded-reconfiguration path.  An event with no duration then models
    a machine that never comes back (permanent capacity loss).  With
    ``hold_slot=False`` the slot frees immediately and NoStop's next
    Adjust call heals the pool.
    """

    count: int = 1
    hold_slot: bool = True
    _held: List[tuple] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def inject(
        self, context: "StreamingContext", now: float, rng: np.random.Generator
    ) -> str:
        rm = context.resource_manager
        victims: List[int] = []
        for _ in range(self.count):
            if rm.executor_count <= 1:
                break  # never kill the last executor
            pool = rm.executors
            victim = pool[int(rng.integers(len(pool)))]
            node = victim.node
            victims.append(context.inject_executor_failure(victim.executor_id))
            if self.hold_slot:
                # The crashed slot's resources stay unusable until the
                # event recovers (the machine is rebooting).
                node.allocate(rm.executor_cores, rm.executor_memory_gb)
                self._held.append((node, rm.executor_cores, rm.executor_memory_gb))
        return f"crashed executors {victims}" if victims else "no-op (pool at 1)"

    def recover(self, context: "StreamingContext", now: float) -> None:
        while self._held:
            node, cores, mem = self._held.pop()
            node.release(cores, mem)


@dataclass
class NodeOutage(Injector):  # det: allow-unused: DESIGN.md §9 chaos DSL table
    """Take one worker node offline, killing every executor on it.

    ``worker_index`` selects the victim from ``cluster.workers`` (None =
    seeded random choice).  While offline the node refuses allocations
    and contributes zero capacity, so ``max_executors`` shrinks —
    configuration applications that need the node fail until recovery.
    """

    worker_index: Optional[int] = None
    _node: Optional[object] = field(default=None, repr=False)

    def inject(
        self, context: "StreamingContext", now: float, rng: np.random.Generator
    ) -> str:
        workers = context.cluster.workers
        online = [n for n in workers if n.online]
        if not online:
            return "no-op (no online workers)"
        if self.worker_index is not None:
            node = workers[self.worker_index % len(workers)]
            if not node.online:
                return f"no-op (node {node.node_id} already offline)"
        else:
            node = online[int(rng.integers(len(online)))]
        rm = context.resource_manager
        killed: List[int] = []
        for ex in list(rm.executors):
            if ex.node is node and rm.executor_count > 1:
                killed.append(context.inject_executor_failure(ex.executor_id))
        node.set_offline()
        self._node = node
        return f"node {node.node_id} offline, killed executors {killed}"

    def recover(self, context: "StreamingContext", now: float) -> None:
        if self._node is not None:
            self._node.set_online()
            self._node = None


@dataclass
class StragglerSlowdown(Injector):
    """Degrade the service rate of ``count`` executors by ``factor``.

    Models a GC-thrashing / noisy-neighbour straggler: tasks landing on
    the victim take ``factor`` times longer, stretching the stage barrier
    and inflating batch processing time without any crash signal — the
    pure-noise fault MAD rejection exists for.
    """

    factor: float = 4.0
    count: int = 1
    _victims: List[object] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise ValueError(f"factor must be > 1.0, got {self.factor}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def inject(
        self, context: "StreamingContext", now: float, rng: np.random.Generator
    ) -> str:
        pool = context.resource_manager.executors
        if not pool:
            return "no-op (empty pool)"
        picks = rng.choice(len(pool), size=min(self.count, len(pool)), replace=False)
        ids: List[int] = []
        for i in sorted(int(p) for p in picks):
            pool[i].set_slowdown(self.factor)
            self._victims.append(pool[i])
            ids.append(pool[i].executor_id)
        return f"executors {ids} slowed {self.factor:.1f}x"

    def recover(self, context: "StreamingContext", now: float) -> None:
        while self._victims:
            victim = self._victims.pop()
            # The victim may have been decommissioned meanwhile; clearing
            # its slowdown is harmless either way.
            victim.set_slowdown(1.0)


@dataclass
class BrokerOutage(Injector):
    """Stall ingestion: brokers unreachable, fetches return nothing.

    Records keep accumulating in the topic, so the first post-recovery
    batch carries the whole backlog — the burst that poisons a naive
    measurement window.  ``brokers`` (optional) are also flagged offline
    for observability.
    """

    brokers: Sequence["KafkaBroker"] = ()

    def inject(
        self, context: "StreamingContext", now: float, rng: np.random.Generator
    ) -> str:
        context.receiver.stall()
        for b in self.brokers:
            b.set_offline()
        ids = [b.broker_id for b in self.brokers]
        return f"brokers {ids} down, receiver stalled" if ids else "receiver stalled"

    def recover(self, context: "StreamingContext", now: float) -> None:
        for b in self.brokers:
            b.set_online()
        context.receiver.resume()


@dataclass
class DriverFailure(Injector):
    """Kill the driver process: the controller dies mid-optimization.

    The fault every other injector leaves untouched — not an executor,
    a node, or a broker, but the *control plane* itself.  While the
    driver is down no batches are scheduled (the receiver stalls, so
    records pile up in the topic exactly as for a broker outage) and,
    crucially, the NoStop controller loses its in-memory state: SPSA
    iterate, gain position, ρ, pause history, rate window.

    What happens at recovery is the experiment's independent variable
    and is delegated to an optional bound *host* (see
    :mod:`repro.experiments.recovery`): the paper's §5.5 cold restart
    throws the tuner state away, checkpoint recovery restores it.  The
    injector itself only models the outage window; with no host bound
    it degrades to a pure ingestion stall, so it composes with any
    chaos schedule.
    """

    _host: Optional[object] = field(default=None, repr=False)

    def bind(self, host: object) -> "DriverFailure":
        """Attach a driver host notified on kill/recover (fluent)."""
        self._host = host
        return self

    def inject(
        self, context: "StreamingContext", now: float, rng: np.random.Generator
    ) -> str:
        context.receiver.stall()
        if self._host is not None:
            self._host.on_driver_kill(now)
        return "driver killed; scheduling halted, controller state lost"

    def recover(self, context: "StreamingContext", now: float) -> None:
        context.receiver.resume()
        if self._host is not None:
            self._host.on_driver_recover(now)


@dataclass
class DataSkewBurst(Injector):
    """Multiply the offered ingest rate for the event's duration.

    The data-skew / flash-crowd burst of §5.5: enough sustained surge
    trips the rate monitor's coefficient reset, which is the *intended*
    response — the chaos report counts resets so tests can tell intended
    resets from spurious re-triggers.
    """

    multiplier: float = 3.0

    def __post_init__(self) -> None:
        if self.multiplier <= 1.0:
            raise ValueError(f"multiplier must be > 1.0, got {self.multiplier}")

    def inject(
        self, context: "StreamingContext", now: float, rng: np.random.Generator
    ) -> str:
        context.generator.set_surge(self.multiplier)
        return f"ingest surged {self.multiplier:.1f}x"

    def recover(self, context: "StreamingContext", now: float) -> None:
        context.generator.set_surge(1.0)

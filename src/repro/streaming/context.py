"""Streaming context: the user-facing simulation facade.

A :class:`StreamingContext` wires the substrates together the way the
paper's Fig. 4 architecture does — record source → batch queue →
micro-batch engine over a dynamically sized executor pool — and exposes
exactly the control surface NoStop needs:

* :meth:`change_configuration` — runtime adjustment of batch interval and
  executor count without restarting ("NoStop is capable of optimizing
  system configurations online without rebooting the entire cluster");
* :meth:`advance_batches` — run the pipeline forward;
* :attr:`listener` — the JSON status reporter NoStop subscribes to.

Time semantics: configuration changes take effect at the *next batch
boundary* (the next formed batch uses the new interval; jobs started
after the change use the new executor pool), matching how the authors'
modified Spark applies reconfigurations between batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.resource_manager import ResourceManager
from repro.datagen.generator import DataGenerator
from repro.engine.faults import NO_FAULTS, FaultModel
from repro.engine.overhead import DEFAULT_OVERHEAD, OverheadModel
from repro.engine.task_scheduler import NoiseModel, TaskScheduler
from repro.obs import catalog
from repro.obs.span import NOOP_SPAN, Span
from repro.obs.tracer import NOOP_TELEMETRY, Telemetry
from repro.workloads.base import Workload

from .batch_queue import BatchQueue
from .listener import StreamingListener
from .metrics import BatchInfo
from .receiver import Receiver
from .simulator import MicroBatchEngine


@dataclass(frozen=True)
class StreamingConfig:
    """The two tunables of the paper: batch interval and executor count."""

    batch_interval: float
    num_executors: int

    def __post_init__(self) -> None:
        if self.batch_interval <= 0:
            raise ValueError(
                f"batch_interval must be positive, got {self.batch_interval}"
            )
        if self.num_executors < 1:
            raise ValueError(
                f"num_executors must be >= 1, got {self.num_executors}"
            )


class StreamingContext:
    """End-to-end simulated Spark Streaming application.

    This class is the one pipeline of every fidelity tier: the
    configuration, the reconfiguration transaction, boundary hooks, the
    batch queue, the batch-formation loop, failure injection, and
    status.  A tier differs only in the two parts its constructor
    builds: the record source on ``receiver`` (here the Kafka-fed
    :class:`~repro.streaming.receiver.Receiver`) and the batch coster on
    ``engine`` (a :class:`~repro.streaming.simulator.BusyTimeline`; here
    the task-level :class:`~repro.streaming.simulator.MicroBatchEngine`).
    A faster tier (:class:`~repro.fast.context.FastStreamingContext`)
    builds its own parts and overrides only the two invalidation hooks
    :meth:`_pool_changed` and :meth:`_invalidate`, plus
    :meth:`advance_one_batch` to run the loop without batch traces.
    """

    def __init__(
        self,
        cluster: Cluster,
        workload: Workload,
        generator: DataGenerator,
        config: StreamingConfig,
        seed: int = 0,
        overhead: OverheadModel = DEFAULT_OVERHEAD,
        noise: NoiseModel = NoiseModel(),
        queue_max_length: Optional[int] = None,
        faults: FaultModel = NO_FAULTS,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._init_shared(
            cluster, workload, generator, config, seed, overhead,
            queue_max_length, telemetry,
        )
        self.receiver = Receiver(generator, telemetry=self.telemetry)
        self.engine = MicroBatchEngine(
            self.resource_manager,
            workload,
            TaskScheduler(overhead=overhead, noise=noise, faults=faults),
            self.listener,
            self.rng,
            telemetry=self.telemetry,
        )

    def _init_shared(
        self,
        cluster: Cluster,
        workload: Workload,
        generator: DataGenerator,
        config: StreamingConfig,
        seed: int,
        overhead: OverheadModel,
        queue_max_length: Optional[int],
        telemetry: Optional[Telemetry],
    ) -> None:
        """State every tier shares: pool, listener, batch queue, clock,
        instruments."""
        self.cluster = cluster
        self.workload = workload
        self.generator = generator
        self.rng = np.random.default_rng(seed)
        self.overhead = overhead
        self.telemetry = telemetry or NOOP_TELEMETRY

        self.resource_manager = ResourceManager(cluster)
        self.resource_manager.instrument(self.telemetry.metrics)
        self.resource_manager.scale_to(config.num_executors, now=0.0)
        self.listener = StreamingListener(telemetry=self.telemetry)
        self.queue = BatchQueue(max_length=queue_max_length)

        self._interval = config.batch_interval
        #: Simulation time of the most recent batch boundary.
        self.time = 0.0
        self.config_changes = 0
        #: Callbacks invoked with the upcoming boundary time before each
        #: batch closes — the chaos engine's injection point.
        self._boundary_hooks: List[Callable[[float], None]] = []
        #: Root span of the batch currently being formed; chaos-engine
        #: boundary hooks attach fault span events here.
        self.current_batch_span: Span = NOOP_SPAN
        #: Monotonic batch-trace sequence (trace ids stay unique even if
        #: job ids ever restart).
        self._trace_seq = 0
        registry = self.telemetry.metrics
        self._m_reconfigs = catalog.instrument(
            registry, "repro_streaming_reconfigurations_total"
        )
        self._m_queue_len = catalog.instrument(
            registry, "repro_streaming_queue_length"
        )
        self._m_dropped = catalog.instrument(
            registry, "repro_streaming_batches_dropped_total"
        )
        self._m_interval = catalog.instrument(
            registry, "repro_streaming_batch_interval_seconds"
        )
        self._m_executors = catalog.instrument(
            registry, "repro_streaming_executors"
        )
        self._m_interval.set(self._interval)
        self._m_executors.set(self.num_executors)

    # -- configuration ----------------------------------------------------

    @property
    def batch_interval(self) -> float:
        return self._interval

    @property
    def num_executors(self) -> int:
        return self.resource_manager.executor_count

    @property
    def config(self) -> StreamingConfig:
        return StreamingConfig(self._interval, self.num_executors)

    def change_configuration(
        self,
        batch_interval: Optional[float] = None,
        num_executors: Optional[int] = None,
        partitions: Optional[int] = None,
        executor_cores: Optional[int] = None,
    ) -> None:
        """Runtime reconfiguration (the ``changeConfigurations(θ)`` of
        Table 1).  No-ops when all supplied values already match.

        ``partitions`` retunes the workload's per-stage task count — the
        third tunable of the paper's future-work multi-parameter
        extension; it takes effect on the next built job.

        ``executor_cores`` resizes every executor (the fourth tunable):
        the pool is relaunched at the new sizing, so the next batch pays
        the executor-startup charge — core resizes are deliberately the
        most expensive move a tuner can make.
        """
        new_interval = self._interval if batch_interval is None else batch_interval
        new_execs = self.num_executors if num_executors is None else num_executors
        if new_interval <= 0:
            raise ValueError(f"batch_interval must be positive, got {new_interval}")
        if new_execs < 1:
            raise ValueError(f"num_executors must be >= 1, got {new_execs}")
        if partitions is not None and partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        if executor_cores is not None and executor_cores < 1:
            raise ValueError(
                f"executor_cores must be >= 1, got {executor_cores}"
            )
        changed = False
        # Resize/scale executors before committing the interval: pool
        # changes are the only steps that can fail (insufficient
        # capacity during a chaos node outage), and doing them first —
        # with the resize's own atomic pre-check covering the combined
        # (cores, count) move — keeps the change transactional: a raised
        # InsufficientResourcesError leaves the configuration exactly as
        # it was.
        if (
            executor_cores is not None
            and executor_cores != self.resource_manager.executor_cores
        ):
            self.resource_manager.resize_cores(
                executor_cores, now=self.time, target=new_execs
            )
            self._pool_changed(launched=True)
            changed = True
        elif new_execs != self.num_executors:
            delta = self.resource_manager.scale_to(new_execs, now=self.time)
            self._pool_changed(launched=delta > 0)
            changed = True
        if abs(new_interval - self._interval) > 1e-12:
            self._interval = new_interval
            changed = True
        if partitions is not None and partitions != self.workload.partitions:
            self.workload.partitions = partitions
            changed = True
        if changed:
            self.config_changes += 1
            self._m_reconfigs.inc()
            self._m_interval.set(self._interval)
            self._m_executors.set(self.num_executors)
            self.engine.note_reconfiguration(self.time, self.overhead.reconfig_pause)
            # Keep the traces around a configuration change: the batch
            # absorbing the pause plus the first batches under the new
            # config are exactly what before/after delay comparisons need.
            self.telemetry.tracer.note_interest(
                self.time, self.time + 2 * self._interval, "reconfig"
            )
            self._invalidate()

    def _pool_changed(self, launched: bool) -> None:
        """Tier hook: the executor pool changed (``launched``: fresh
        executors joined).  The exact tier reads the live pool per job."""

    def _invalidate(self) -> None:
        """Tier hook: work precomputed under the old configuration or
        pool is stale.  The exact tier precomputes nothing."""

    # -- simulation ---------------------------------------------------------

    def add_boundary_hook(self, hook: Callable[[float], None]) -> None:
        """Register a callback fired with each upcoming boundary time.

        Hooks run *before* the batch at that boundary closes, so a hook
        that crashes an executor or stalls the receiver affects the batch
        being formed — the chaos engine's injection point.
        """
        self._boundary_hooks.append(hook)

    def remove_boundary_hook(self, hook: Callable[[float], None]) -> None:
        """Unregister a boundary callback (a no-op if never added)."""
        if hook in self._boundary_hooks:
            self._boundary_hooks.remove(hook)

    def advance_one_batch(self) -> List[BatchInfo]:
        """Advance to the next batch boundary.

        Closes one batch, enqueues its job, and starts every queued job
        whose start time precedes the new boundary.  Returns the batches
        completed by this step (possibly none while a long job from an
        unstable phase is still running, possibly several as the engine
        catches up).
        """
        return self._advance(self.telemetry.tracer.enabled)

    def _advance(self, traced: bool) -> List[BatchInfo]:
        """The batch-formation loop of every tier; ``traced`` gives the
        batch a trace (ingest, queue, schedule and execute spans)."""
        boundary = self.time + self._interval
        root = NOOP_SPAN
        if traced:
            tracer = self.telemetry.tracer
            self._trace_seq += 1
            root = tracer.start_trace(
                "batch",
                trace_id=f"batch-{self._trace_seq:06d}",
                start=self.time,
                interval=self._interval,
            )
            self.current_batch_span = root
        for hook in self._boundary_hooks:
            hook(boundary)
        batch = self.receiver.close_batch(boundary)
        batch.interval = self._interval
        self.engine.prepare(batch)
        if traced:
            # Ingest covers the arrival window that became this batch:
            # the Kafka fetch (direct-stream offset ranges) and the
            # receiver-side block formation over the same interval.
            ingest = tracer.start_span("ingest", root, self.time)
            kafka_span = tracer.start_span(
                "ingest.kafka", ingest, self.time,
                records=batch.records, backlog=self.receiver.backlog,
            )
            kafka_span.finish(boundary)
            blocks = tracer.start_span(
                "ingest.blocks", ingest, self.time,
                mean_arrival=batch.mean_arrival_time,
            )
            blocks.finish(boundary)
            ingest.finish(boundary)
            root.set_attribute("batch_index", batch.batch_index)
            root.set_attribute("records", batch.records)
            batch.trace = root.context
        queue = self.queue
        if not queue.enqueue(batch):
            self._m_dropped.inc()
            evicted = queue.last_evicted
            if evicted.trace is not None:
                dropped_root = self.telemetry.tracer.span_for(evicted.trace)
                dropped_root.add_event("dropped", boundary, reason="queue_full")
                dropped_root.set_attribute("dropped", True)
                dropped_root.finish(boundary)
        self.time = boundary
        completed = self.engine.drain(queue, until=boundary + self._interval)
        if self.telemetry.enabled:
            self._m_queue_len.set(len(queue))
        if traced:
            self.current_batch_span = NOOP_SPAN
        return completed

    def advance_batches(self, n: int) -> List[BatchInfo]:
        """Advance ``n`` batch boundaries; returns all completed batches."""
        if n < 0:
            raise ValueError("n must be >= 0")
        completed: List[BatchInfo] = []
        for _ in range(n):
            completed.extend(self.advance_one_batch())
        return completed

    def advance_until(self, t: float) -> List[BatchInfo]:
        """Advance batch boundaries until simulation time reaches ``t``."""
        completed: List[BatchInfo] = []
        while self.time + self._interval <= t:
            completed.extend(self.advance_one_batch())
        return completed

    # -- fault injection -----------------------------------------------------

    def inject_executor_failure(self, executor_id: Optional[int] = None) -> int:
        """Crash one executor (unplanned loss); returns its id.

        The pool shrinks until the next :meth:`change_configuration` with
        an explicit executor count restores it — which NoStop's next
        Adjust call does automatically.
        """
        failed = self.resource_manager.fail_executor(executor_id)
        self._pool_changed(launched=False)
        self._invalidate()
        return failed

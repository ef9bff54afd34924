"""Micro-batch engine: serialized job execution over the batch queue.

Spark Streaming (with the default ``spark.streaming.concurrentJobs = 1``)
processes one batch job at a time; a batch whose predecessor is still
running waits in the queue and accrues *schedule delay*.  The engine here
owns the engine-busy timeline, drains the queue causally (a job is
started only once simulated time has reached its start), and emits a
:class:`~repro.streaming.metrics.BatchInfo` per completed batch.

Every tier's batch coster is a :class:`BusyTimeline` and shares its
drain loop; :class:`MicroBatchEngine` is the exact tier's.

When telemetry is attached, every started job continues its batch's
trace: a ``queue`` span covering the wait from enqueue to job start,
then ``schedule`` / ``execute`` spans emitted by the task scheduler, and
finally the batch root span is closed at the job's finish time.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.resource_manager import ResourceManager
from repro.engine.task_scheduler import JobRun, TaskScheduler
from repro.obs import catalog
from repro.obs.tracer import NOOP_TELEMETRY, Telemetry
from repro.workloads.base import Workload

from .batch_queue import BatchQueue, QueuedBatch
from .listener import StreamingListener
from .metrics import BatchInfo


class BusyTimeline:
    """The serialized engine's busy timeline and drain loop, shared by
    every tier.

    One job runs at a time (``spark.streaming.concurrentJobs = 1``):
    ``free_at`` is when the running job finishes, reconfiguration pauses
    push it out, and the first job started after a reconfiguration is
    flagged so metric collectors can discard it (§5.4).  Tiers differ
    only in how they cost a job — :meth:`prepare` at enqueue and
    :meth:`run` at drain — never in this bookkeeping.
    """

    def __init__(self, listener: StreamingListener) -> None:
        self.listener = listener
        #: Time at which the engine finishes its current job (busy until).
        self.free_at = 0.0
        self.jobs_run = 0
        #: Cumulative reconfiguration pause injected into ``free_at``.
        #: Scheduling-delay slack beyond the backlog identity is bounded
        #: by this total — the invariant engine checks exactly that.
        self.total_pause_injected = 0.0
        #: Set by a configuration change; the next finished job is
        #: flagged ``first_after_reconfig`` and the flag clears.
        self._reconfig_pending = False

    def note_reconfiguration(self, now: float, pause: float) -> None:
        """Account for a runtime configuration change.

        The engine pauses briefly (driver-side coordination) and the next
        job is marked as the first after the change.
        """
        if pause < 0:
            raise ValueError("pause must be >= 0")
        self.free_at = max(self.free_at, now) + pause
        self.total_pause_injected += pause
        self._reconfig_pending = True

    # -- the coster ---------------------------------------------------------

    def prepare(self, batch: QueuedBatch) -> None:
        """Set a closed batch's ``batch_index`` and ``cost`` at enqueue."""
        raise NotImplementedError

    def run(self, batch: QueuedBatch, start: float) -> Tuple[float, int]:
        """Run a batch from ``start``: (finish time, executors used)."""
        raise NotImplementedError

    # -- the drain loop -----------------------------------------------------

    def drain(self, queue: BatchQueue, until: float) -> List[BatchInfo]:
        """Start every queued job whose start time falls before ``until``.

        Returns the batches started by this call (each already completed
        in simulated time — job durations are deterministic once started).
        """
        completed: List[BatchInfo] = []
        peek = queue.peek
        on_batch_completed = self.listener.on_batch_completed
        while (qb := peek()) is not None:
            start = qb.batch_time
            if self.free_at > start:
                start = self.free_at
            if start >= until:
                break
            queue.dequeue(start)
            end, executors = self.run(qb, start)
            self.free_at = end
            self.jobs_run += 1
            info = BatchInfo(
                qb.batch_index, qb.batch_time, qb.interval, qb.records,
                executors, qb.mean_arrival_time, start, end,
                self._reconfig_pending,
            )
            self._reconfig_pending = False
            on_batch_completed(info)
            completed.append(info)
        return completed


class MicroBatchEngine(BusyTimeline):
    """The exact tier's coster: a batch job per batch, run task by task."""

    def __init__(
        self,
        resource_manager: ResourceManager,
        workload: Workload,
        scheduler: TaskScheduler,
        listener: StreamingListener,
        rng: np.random.Generator,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.resource_manager = resource_manager
        self.workload = workload
        self.scheduler = scheduler
        self.rng = rng
        self.telemetry = telemetry or NOOP_TELEMETRY
        super().__init__(listener)
        #: cumulative transient task failures across all jobs
        self.total_task_failures = 0
        self.last_runs: List[JobRun] = []
        self.keep_runs = False
        metrics = self.telemetry.metrics
        self._m_jobs = catalog.instrument(metrics, "repro_engine_jobs_total")
        self._m_task_failures = catalog.instrument(
            metrics, "repro_engine_task_failures_total"
        )
        self._m_stage_seconds = catalog.instrument(
            metrics, "repro_engine_stage_seconds"
        )

    def prepare(self, batch: QueuedBatch) -> None:
        """Build the batch job (its task costs and iteration draws)."""
        job = self.workload.build_job(batch.batch_time, batch.records, self.rng)
        batch.batch_index = job.job_id
        batch.cost = job

    def run(self, batch: QueuedBatch, start: float) -> Tuple[float, int]:
        """Schedule the batch job's tasks on the live executor pool."""
        executors = self.resource_manager.executors
        tracer = self.telemetry.tracer
        traced = tracer.enabled and batch.trace is not None
        if traced:
            queue_span = tracer.start_span(
                "queue", batch.trace, batch.batch_time
            )
            queue_span.finish(start)
            run = self.scheduler.run_job(
                batch.cost, executors, start, self.rng,
                tracer=tracer, parent=batch.trace,
            )
        else:
            run = self.scheduler.run_job(batch.cost, executors, start, self.rng)
        self.total_task_failures += run.task_failures
        self._m_jobs.inc()
        if run.task_failures:
            self._m_task_failures.inc(run.task_failures)
        if self.telemetry.enabled:
            for sr in run.stage_runs:
                self._m_stage_seconds.observe(sr.duration)
        if self.keep_runs:
            self.last_runs.append(run)
        if traced:
            root = tracer.span_for(batch.trace)
            root.set_attribute("processing_time", run.finish - start)
            root.set_attribute("scheduling_delay", start - batch.batch_time)
            root.set_attribute("executors", len(executors))
            root.set_attribute("task_failures", run.task_failures)
            if self._reconfig_pending:
                root.set_attribute("first_after_reconfig", True)
            root.finish(run.finish)
        return run.finish, len(executors)

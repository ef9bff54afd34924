"""Micro-batch engine: serialized job execution over the batch queue.

Spark Streaming (with the default ``spark.streaming.concurrentJobs = 1``)
processes one batch job at a time; a batch whose predecessor is still
running waits in the queue and accrues *schedule delay*.  The engine here
owns the engine-busy timeline, drains the queue causally (a job is
started only once simulated time has reached its start), and emits a
:class:`~repro.streaming.metrics.BatchInfo` per completed batch.

When telemetry is attached, every started job continues its batch's
trace: a ``queue`` span covering the wait from enqueue to job start,
then ``schedule`` / ``execute`` spans emitted by the task scheduler, and
finally the batch root span is closed at the job's finish time.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cluster.resource_manager import ResourceManager
from repro.engine.task_scheduler import JobRun, TaskScheduler
from repro.obs import catalog
from repro.obs.tracer import NOOP_TELEMETRY, Telemetry

from .batch_queue import BatchQueue, QueuedBatch
from .listener import StreamingListener
from .metrics import BatchInfo


class BusyTimeline:
    """The serialized engine's busy timeline, shared by every tier.

    One job runs at a time (``spark.streaming.concurrentJobs = 1``):
    ``free_at`` is when the running job finishes, reconfiguration pauses
    push it out, and the first job started after a reconfiguration is
    flagged so metric collectors can discard it (§5.4).  Tiers differ
    only in how they cost a job, never in this bookkeeping.
    """

    def __init__(self) -> None:
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

    def finish_job(self, end: float) -> bool:
        """Book one job running until ``end``.

        Returns whether it is the first job after a reconfiguration.
        """
        self.free_at = end
        self.jobs_run += 1
        first = self._reconfig_pending
        self._reconfig_pending = False
        return first


class MicroBatchEngine(BusyTimeline):
    """Drains a :class:`BatchQueue` one job at a time."""

    def __init__(
        self,
        resource_manager: ResourceManager,
        scheduler: TaskScheduler,
        listener: StreamingListener,
        rng: np.random.Generator,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.resource_manager = resource_manager
        self.scheduler = scheduler
        self.listener = listener
        self.rng = rng
        self.telemetry = telemetry or NOOP_TELEMETRY
        super().__init__()
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

    def drain(self, queue: BatchQueue, until: float) -> List[BatchInfo]:
        """Start every queued job whose start time falls before ``until``.

        Returns the batches started by this call (each already completed
        in simulated time — job durations are deterministic once started).
        """
        completed: List[BatchInfo] = []
        while not queue.empty:
            head_time = queue._queue[0].enqueued_at  # peek
            start = max(head_time, self.free_at)
            if start >= until:
                break
            qb = queue.dequeue(start)
            info = self._run(qb, start)
            completed.append(info)
        return completed

    def _run(self, qb: QueuedBatch, start: float) -> BatchInfo:
        executors = self.resource_manager.executors
        tracer = self.telemetry.tracer
        if tracer.enabled and qb.trace is not None:
            queue_span = tracer.start_span("queue", qb.trace, qb.enqueued_at)
            queue_span.finish(start)
            run = self.scheduler.run_job(
                qb.job, executors, start, self.rng,
                tracer=tracer, parent=qb.trace,
            )
        else:
            run = self.scheduler.run_job(qb.job, executors, start, self.rng)
        first_after_reconfig = self.finish_job(run.finish)
        self.total_task_failures += run.task_failures
        self._m_jobs.inc()
        if run.task_failures:
            self._m_task_failures.inc(run.task_failures)
        if self.telemetry.enabled:
            for sr in run.stage_runs:
                self._m_stage_seconds.observe(sr.duration)
        if self.keep_runs:
            self.last_runs.append(run)
        info = BatchInfo(
            batch_index=qb.job.job_id,
            batch_time=qb.enqueued_at,
            interval=qb.interval,
            records=qb.job.records,
            num_executors=len(executors),
            mean_arrival_time=qb.mean_arrival_time,
            processing_start=start,
            processing_end=run.finish,
            first_after_reconfig=first_after_reconfig,
        )
        if tracer.enabled and qb.trace is not None:
            root = tracer.span_for(qb.trace)
            root.set_attribute("processing_time", info.processing_time)
            root.set_attribute("scheduling_delay", info.scheduling_delay)
            root.set_attribute("executors", len(executors))
            root.set_attribute("task_failures", run.task_failures)
            if info.first_after_reconfig:
                root.set_attribute("first_after_reconfig", True)
            root.finish(run.finish)
        self.listener.on_batch_completed(info)
        return info

    def next_start_time(self, queue: BatchQueue) -> Optional[float]:
        """When the head-of-queue job would start, or None if empty."""
        if queue.empty:
            return None
        return max(queue._queue[0].enqueued_at, self.free_at)

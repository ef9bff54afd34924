"""Runtime invariant engine.

Attaches to a live :class:`~repro.streaming.context.StreamingContext` of
any fidelity tier through the same two observation surfaces the chaos
engine and the run judge use — the batch-boundary hook and the listener
subscription — and checks, at every boundary and for every completed
batch, conservation laws the simulator must obey regardless of
configuration, controller, or fault schedule.  Batch-level checks run on
every tier:

* **clock-monotonicity** — batch boundaries strictly increase and batch
  indices are strictly ordered; a completed batch's processing window is
  well-formed (``batch_time <= processing_start <= processing_end``) and
  its mean arrival precedes its close.
* **queue-accounting** — the batch queue's own ledger balances
  (``enqueued = dequeued + dropped + waiting``); jobs on the serialized
  engine never overlap; and scheduling delay is consistent with
  backlog: a batch's start time equals
  ``max(batch_time, previous job's finish)`` except for slack introduced
  by reconfiguration pauses, so cumulative slack is bounded by the
  engine's injected pause total (Little's-law bookkeeping — waiting time
  comes from queued work plus accounted pauses, never from nowhere).
* **job-conservation** — the engine ran exactly one job per recorded
  batch.

Checks that need the exact tier's record and task substrates run only
where the context has them:

* **record-conservation** — every record the producer appended is either
  still unconsumed in the topic (consumer lag), processed by a completed
  batch, waiting in the batch queue, or was dropped with an evicted
  batch:  ``produced = consumed + lag`` and
  ``consumed = processed + queued + dropped``.
* **busy-time** — per job, the summed task busy time never exceeds the
  job's wall time × executor count × cores per executor.

The fast tier's interval-midpoint arrivals instead make one identity
exact per batch, which the engine checks there only:

* **delay-identity** — ``e2e = interval/2 + sched + proc`` for every
  non-empty batch; an empty batch's mean arrival is its boundary.

Checking is pure observation: the engine only *enables* the scheduler's
task recording (``keep_runs`` / ``record_tasks``), which the CI
``test-traced`` job already guarantees changes no simulation result.

Violations surface as structured
:class:`~repro.check.violations.InvariantViolation` records and as the
``repro_check_violations_total`` counter on the existing obs registry;
``repro check --strict`` fails on any.
"""

from __future__ import annotations

from typing import List, Optional

from repro.fast.context import FastStreamingContext
from repro.obs import catalog
from repro.streaming.context import StreamingContext
from repro.streaming.metrics import BatchInfo

from .violations import InvariantViolation

#: Float-comparison slop for simulated clock arithmetic (seconds).
EPS = 1e-6


class InvariantEngine:
    """Boundary-hooked conservation checker for one streaming context.

    The check sets follow from the context's class: the record ledger
    and busy-time checks need the exact tier's Kafka topic and task
    scheduler; the delay identity needs the fast tier's midpoint
    arrivals.
    """

    #: Violations kept in :attr:`violations`; later ones are only counted.
    MAX_RECORDED = 50

    def __init__(self, context: StreamingContext) -> None:
        self.context = context
        self.violations: List[InvariantViolation] = []
        self.total_violations = 0
        self.checks_run = 0
        self.batches_checked = 0
        self._last_boundary: Optional[float] = None
        self._last_batch_index: Optional[int] = None
        # The engine's free_at starts at 0.0; the first job can never
        # start before it.
        self._prev_end = 0.0
        self._slack_total = 0.0
        self._slack_checks = 0
        self._fast = isinstance(context, FastStreamingContext)
        if not self._fast:
            # Observation-only switches: record per-task windows so busy
            # time can be audited.  Tracing-parity CI guarantees these
            # change no simulated result.
            context.engine.keep_runs = True
            context.engine.scheduler.record_tasks = True
        metrics = context.telemetry.metrics
        # Violations are a family labeled by invariant name (a closed set
        # of engine identities), so a failing run says *which* invariant
        # broke without a log dive.
        self._m_violations = catalog.instrument(
            metrics, "repro_check_violations_total"
        )
        self._m_checks = catalog.instrument(
            metrics, "repro_check_checks_total"
        )
        context.add_boundary_hook(self.on_boundary)
        context.listener.subscribe(self.on_batch)

    def detach(self) -> None:
        """Stop observing the context (checks run so far are kept)."""
        self.context.remove_boundary_hook(self.on_boundary)
        self.context.listener.unsubscribe(self.on_batch)

    # -- reporting ----------------------------------------------------------

    def _violate(self, invariant: str, time: float, message: str, **details):
        self.total_violations += 1
        self._m_violations.labels(invariant=invariant).inc()
        if len(self.violations) < self.MAX_RECORDED:
            self.violations.append(
                InvariantViolation(
                    invariant=invariant,
                    time=time,
                    message=message,
                    details=details,
                )
            )

    def _check(self, ok: bool, invariant: str, time: float, message: str,
               **details) -> bool:
        self.checks_run += 1
        self._m_checks.inc()
        if not ok:
            self._violate(invariant, time, message, **details)
        return ok

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    # -- boundary-time checks ----------------------------------------------

    def on_boundary(self, boundary: float) -> None:
        """Fires with the upcoming boundary, before the batch closes.

        At this instant the pipeline is quiescent: every record the
        consumer has polled so far went into a batch that has been
        processed, waits in the queue, or was evicted — so the
        conservation ledgers must balance exactly.
        """
        if self._last_boundary is not None:
            self._check(
                boundary > self._last_boundary,
                "clock-monotonicity",
                boundary,
                f"boundary {boundary} does not advance past "
                f"{self._last_boundary}",
                previous=self._last_boundary,
            )
        self._last_boundary = boundary
        if not self._fast:
            self._check_records(boundary)
        self._check_queue(boundary)

    def _check_records(self, boundary: float) -> None:
        ctx = self.context
        producer = ctx.generator.producer
        consumer = ctx.receiver.consumer
        produced = producer.total_produced
        appended = producer.topic.total_records()
        consumed = consumer.total_consumed
        lag = consumer.lag()
        self._check(
            produced == appended,
            "record-conservation",
            boundary,
            f"producer counted {produced} records but topic holds "
            f"{appended}",
            produced=produced,
            appended=appended,
        )
        self._check(
            produced == consumed + lag,
            "record-conservation",
            boundary,
            f"produced {produced} != consumed {consumed} + lag {lag}",
            produced=produced,
            consumed=consumed,
            lag=lag,
        )
        processed = ctx.listener.metrics.total_records()
        queued = ctx.queue.queued_records()
        dropped = ctx.queue.total_dropped_records
        self._check(
            consumed == processed + queued + dropped,
            "record-conservation",
            boundary,
            f"consumed {consumed} != processed {processed} + "
            f"queued {queued} + dropped {dropped}",
            consumed=consumed,
            processed=processed,
            queued=queued,
            dropped=dropped,
        )

    def _check_queue(self, boundary: float) -> None:
        queue = self.context.queue
        self._check(
            queue.conservation_ok(),
            "queue-accounting",
            boundary,
            f"queue ledger unbalanced: enqueued {queue.total_enqueued} "
            f"!= dequeued {queue.total_dequeued} + dropped "
            f"{queue.total_dropped} + waiting {len(queue)}",
            enqueued=queue.total_enqueued,
            dequeued=queue.total_dequeued,
            dropped=queue.total_dropped,
            waiting=len(queue),
        )

    # -- per-batch checks ---------------------------------------------------

    def on_batch(self, info: BatchInfo) -> None:
        self.batches_checked += 1
        t = info.processing_end
        if self._last_batch_index is not None:
            self._check(
                info.batch_index > self._last_batch_index,
                "clock-monotonicity",
                t,
                f"batch index {info.batch_index} not increasing "
                f"(previous {self._last_batch_index})",
                index=info.batch_index,
                previous=self._last_batch_index,
            )
        self._last_batch_index = info.batch_index

        self._check(
            info.batch_time - EPS
            <= info.processing_start
            <= info.processing_end + EPS,
            "clock-monotonicity",
            t,
            f"batch {info.batch_index} processing window "
            f"[{info.processing_start}, {info.processing_end}] "
            f"inconsistent with batch time {info.batch_time}",
            batch_time=info.batch_time,
            processing_start=info.processing_start,
            processing_end=info.processing_end,
        )
        self._check(
            info.mean_arrival_time <= info.batch_time + EPS,
            "clock-monotonicity",
            t,
            f"batch {info.batch_index} mean arrival "
            f"{info.mean_arrival_time} after its close {info.batch_time}",
            mean_arrival=info.mean_arrival_time,
            batch_time=info.batch_time,
        )
        # Serialized engine: jobs never overlap.
        self._check(
            info.processing_start >= self._prev_end - EPS,
            "queue-accounting",
            t,
            f"batch {info.batch_index} started at {info.processing_start} "
            f"before previous job finished at {self._prev_end}",
            processing_start=info.processing_start,
            previous_end=self._prev_end,
        )
        # Little's-law bookkeeping: waiting time is explained by backlog
        # (the previous job still running) — any slack beyond that must
        # come from reconfiguration pauses the engine accounted for.
        slack = info.processing_start - max(info.batch_time, self._prev_end)
        self._slack_total += max(0.0, slack)
        self._slack_checks += 1
        budget = self.context.engine.total_pause_injected
        self._check(
            self._slack_total <= budget + EPS * self._slack_checks,
            "queue-accounting",
            t,
            f"cumulative scheduling-delay slack {self._slack_total:.6f}s "
            f"exceeds injected pause budget {budget:.6f}s",
            slack_total=self._slack_total,
            pause_budget=budget,
        )
        self._prev_end = max(self._prev_end, info.processing_end)
        jobs_run = self.context.engine.jobs_run
        recorded = len(self.context.listener.metrics)
        self._check(
            jobs_run == recorded,
            "job-conservation",
            t,
            f"engine ran {jobs_run} jobs but {recorded} batches were "
            "recorded",
            jobs_run=jobs_run,
            batches=recorded,
        )

        if self._fast:
            self._check_delay_identity(info)
        else:
            self._audit_job_runs(info)

    def _check_delay_identity(self, info: BatchInfo) -> None:
        """Midpoint arrivals make the steady-state identity exact."""
        if info.records > 0:
            expected = (
                info.interval / 2.0
                + info.scheduling_delay
                + info.processing_time
            )
            self._check(
                abs(info.end_to_end_delay - expected) <= EPS,
                "delay-identity",
                info.batch_time,
                f"batch {info.batch_index}: e2e "
                f"{info.end_to_end_delay:.6f} != interval/2 + sched "
                f"+ proc = {expected:.6f}",
                e2e=info.end_to_end_delay,
                expected=expected,
            )
        else:
            self._check(
                abs(info.mean_arrival_time - info.batch_time) <= EPS,
                "delay-identity",
                info.batch_time,
                f"empty batch {info.batch_index} mean arrival not pinned "
                "to the boundary",
                mean_arrival=info.mean_arrival_time,
                batch_time=info.batch_time,
            )

    def _audit_job_runs(self, info: BatchInfo) -> None:
        """Busy-time audit over every job run recorded since last batch."""
        engine = self.context.engine
        cores_per_executor = self.context.resource_manager.executor_cores
        for run in engine.last_runs:
            busy = sum(tr.finish - tr.start for tr in run.task_runs)
            wall = run.finish - run.start
            capacity = wall * run.executors_used * cores_per_executor
            self._check(
                busy <= capacity + EPS,
                "busy-time",
                run.finish,
                f"job {run.job_id}: task busy time {busy:.6f}s exceeds "
                f"wall {wall:.6f}s x {run.executors_used} executors x "
                f"{cores_per_executor} cores = {capacity:.6f}s",
                job_id=run.job_id,
                busy=busy,
                wall=wall,
                executors=run.executors_used,
                cores_per_executor=cores_per_executor,
            )
        # Runs are audited exactly once; the engine only appends.
        engine.last_runs.clear()

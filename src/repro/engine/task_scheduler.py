"""Task scheduler: turns a :class:`BatchJob` into a makespan.

The scheduler reproduces Spark's TaskSchedulerImpl behaviour at the level
that matters for SSPO: tasks of a stage run in parallel across all
executor cores (longest-processing-time-first list scheduling, a good
model of Spark's pending-task queue under uniform locality), stages are
separated by barriers, ML-style stages iterate, and driver-side overheads
from :mod:`repro.engine.overhead` are charged per batch / stage / task.

The result is the *batch processing time* — the single most important
quantity in the paper, since the stability constraint is
``batch interval >= batch processing time``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.executor import Executor
from repro.obs.span import Span, TraceContext
from repro.obs.tracer import Tracer

from .faults import NO_FAULTS, FaultModel
from .job import BatchJob
from .overhead import DEFAULT_OVERHEAD, OverheadModel
from .task import TaskRun, TaskSpec


class NoExecutorsError(RuntimeError):
    """Raised when a job is submitted while zero executors are registered."""


@dataclass
class StageRun:
    """Aggregate record of one executed stage (all iterations)."""

    stage_id: int
    name: str
    start: float
    finish: float
    num_tasks: int
    iterations: int

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class JobRun:
    """Result of executing one batch job."""

    job_id: int
    start: float
    finish: float
    stage_runs: List[StageRun] = field(default_factory=list)
    task_runs: List[TaskRun] = field(default_factory=list)
    executors_used: int = 0
    task_failures: int = 0
    """Failed task attempts (transient faults, retried)."""
    exhausted_retries: int = 0
    """Tasks that consumed their whole failure budget (a real Spark job
    would have been aborted)."""

    @property
    def processing_time(self) -> float:
        """Batch processing time: submission to last-task completion."""
        return self.finish - self.start


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative log-normal jitter on task durations.

    ``sigma`` is the standard deviation of the underlying normal; 0.1
    yields roughly ±10% per-task variation — consistent with the "network
    jitters, resource contentions" noise the paper cites as motivation for
    a noise-tolerant optimizer (§4.1).
    """

    sigma: float = 0.10

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.sigma == 0.0:
            return np.ones(n)
        # mean-1 log-normal so noise does not bias average durations
        return rng.lognormal(mean=-0.5 * self.sigma**2, sigma=self.sigma, size=n)


class TaskScheduler:
    """Greedy LPT list scheduler over heterogeneous executor cores."""

    def __init__(
        self,
        overhead: OverheadModel = DEFAULT_OVERHEAD,
        noise: NoiseModel = NoiseModel(),
        record_tasks: bool = False,
        faults: FaultModel = NO_FAULTS,
    ) -> None:
        self.overhead = overhead
        self.noise = noise
        self.record_tasks = record_tasks
        self.faults = faults

    def run_job(
        self,
        job: BatchJob,
        executors: Sequence[Executor],
        start_time: float,
        rng: np.random.Generator,
        tracer: Optional[Tracer] = None,
        parent: Optional[TraceContext] = None,
    ) -> JobRun:
        """Execute ``job`` on ``executors`` starting at ``start_time``.

        Returns a :class:`JobRun`; ``run.processing_time`` is the batch
        processing time reported to the streaming listener.

        With ``tracer`` and ``parent`` supplied, the run emits
        ``schedule`` / ``execute`` spans under the batch trace.  The
        spans tile ``[start_time, finish]`` exactly — driver-side setup
        and coordination land in ``schedule`` spans, task makespans in
        ``execute`` spans — so their durations sum to the batch
        processing time.
        """
        if not executors:
            raise NoExecutorsError(
                f"job {job.job_id} submitted with no executors registered"
            )
        traced = tracer is not None and tracer.enabled and parent is not None
        run = JobRun(
            job_id=job.job_id,
            start=start_time,
            finish=start_time,
            executors_used=len(executors),
        )
        # (free_at, slot_seq, speed, io_penalty, executor) heap — one
        # entry per core.  Executor speed/penalty only change between
        # batches: each slot carries them, resolved once per job.  One
        # job-wide ``seq`` keeps every key unique, even when zero-cost
        # tasks put slots back at the time they came out.
        slots: List[tuple] = []
        seq = 0
        clock = start_time + self.overhead.batch_setup
        for ex in executors:
            speed, io_penalty = ex.speed_factor, ex.io_penalty
            for _ in range(ex.cores):
                slots.append((clock, seq, speed, io_penalty, ex))
                seq += 1
        heapq.heapify(slots)
        coord = self.overhead.coordination_cost(len(executors))
        task_spans = traced and tracer.task_detail
        # A task set that cannot fail, traces and records no task, and
        # runs once every executor is initialized (so no task pays
        # startup) takes the plain loop.
        plain = not (
            self.record_tasks
            or task_spans
            or (self.faults.enabled and self.faults.max_attempts > 1)
        )
        warm = False
        if traced:
            setup = tracer.start_span(
                "schedule", parent, start_time, phase="job_setup"
            )
            setup.finish(clock)

        for stage in job.stages:
            stage_start = clock
            # LPT order, once per stage (iterated ML stages rerun it dozens
            # of times): longest tasks first minimizes makespan and mirrors
            # Spark's preference for large pending tasks.  The stable sort
            # of the runs, expanded, is the stable sort of the tasks: a
            # run's tasks are contiguous and equal.
            order: List[Tuple[float, float]] = []
            for count, _, compute_cost, io_cost in sorted(
                stage.runs, key=lambda run: run[2] + run[3], reverse=True
            ):
                order += [(compute_cost, io_cost)] * count
            specs = sorted(
                stage.tasks, key=lambda t: t.compute_cost + t.io_cost,
                reverse=True,
            ) if self.record_tasks else None
            for iteration in range(stage.iterations):
                # Driver-side serial costs per stage execution.
                sched_start = clock
                clock += self.overhead.stage_setup + coord
                exec_span: Optional[Span] = None
                if traced:
                    sched = tracer.start_span(
                        "schedule", parent, sched_start,
                        stage=stage.stage_id, iteration=iteration,
                    )
                    sched.finish(clock)
                    exec_span = tracer.start_span(
                        "execute", parent, clock,
                        stage=stage.stage_id, iteration=iteration,
                        tasks=len(order),
                    )
                if plain and not warm:
                    warm = all(ex.initialized for ex in executors)
                if warm:
                    clock, seq = self._run_plain_task_set(
                        order, slots, seq, clock, rng
                    )
                else:
                    clock, seq = self._run_task_set(
                        order, specs, slots, seq, clock, rng, run,
                        tracer=tracer if task_spans else None,
                        exec_span=exec_span,
                    )
                if exec_span is not None:
                    exec_span.finish(clock)
            run.stage_runs.append(
                StageRun(
                    stage_id=stage.stage_id,
                    name=stage.name,
                    start=stage_start,
                    finish=clock,
                    num_tasks=len(order),
                    iterations=stage.iterations,
                )
            )
        run.finish = clock
        return run

    def _run_plain_task_set(
        self,
        order: Sequence[Tuple[float, float]],
        slots: List[tuple],
        seq: int,
        barrier: float,
        rng: np.random.Generator,
    ) -> Tuple[float, int]:
        """:meth:`_run_task_set` for a task set that cannot fail, pays no
        startup and records nothing: the same float operations in the
        same order, the same noise draw and the same heap keys."""
        if not order:
            return barrier, seq
        noise = self.noise.draw(rng, len(order))
        finish_max = barrier
        heapreplace = heapq.heapreplace
        task_dispatch = self.overhead.task_dispatch
        startup = 0.0  # as in the other loop: ``+ 0.0`` maps -0.0 to 0.0
        for (compute_cost, io_cost), noise_i in zip(order, noise.tolist()):
            free_at, _, speed, io_penalty, ex = slots[0]
            start = (free_at if free_at >= barrier else barrier) + task_dispatch
            finish = start + (
                (compute_cost / speed + io_cost * io_penalty) * noise_i + startup
            )
            if finish > finish_max:
                finish_max = finish
            heapreplace(slots, (finish, seq, speed, io_penalty, ex))
            seq += 1
        return finish_max, seq

    def _run_task_set(
        self,
        order: Sequence[Tuple[float, float]],
        specs: Optional[Sequence[TaskSpec]],
        slots: List[tuple],
        seq: int,
        barrier: float,
        rng: np.random.Generator,
        run: JobRun,
        tracer: Optional[Tracer] = None,
        exec_span: Optional[Span] = None,
    ) -> Tuple[float, int]:
        """Schedule one iteration of a stage's (LPT-ordered) tasks.

        ``order`` holds each task's ``(compute_cost, io_cost)`` in
        longest-processing-time-first order (the caller sorts once per
        stage); ``specs`` holds the same tasks' specs when tasks are
        recorded.  ``tracer`` is given when task spans are wanted.
        ``seq`` is the next heap key sequence number.  Returns the new
        barrier and the next ``seq``.
        """
        if not order:
            return barrier, seq
        noise = self.noise.draw(rng, len(order))
        finish_max = barrier
        # Every attempt takes the earliest slot and puts it back busy
        # until its end: one heapreplace.  The (free_at, seq) keys are
        # unique, so slots come out in the same order as with a pop and
        # a push.
        heapreplace = heapq.heapreplace
        task_dispatch = self.overhead.task_dispatch
        max_attempts = self.faults.max_attempts
        faults_active = self.faults.enabled and max_attempts > 1
        # A task's duration: compute scaled by the executor's speed, I/O
        # by its disk penalty, times the drawn noise, plus a fresh
        # executor's one-time startup charge.
        for i, ((compute_cost, io_cost), noise_i) in enumerate(
            zip(order, noise.tolist())
        ):
            attempts = 0
            while True:
                attempts += 1
                free_at, _, speed, io_penalty, ex = slots[0]
                start = (free_at if free_at >= barrier else barrier) + task_dispatch
                startup = 0.0
                charged = False
                if not ex.initialized:
                    startup = self.overhead.executor_startup
                    ex.mark_initialized()
                    charged = True
                duration = (
                    compute_cost / speed + io_cost * io_penalty
                ) * noise_i + startup
                may_fail = faults_active and attempts < max_attempts
                if may_fail and self.faults.attempt_fails(rng):
                    # Transient failure: the core is busy for part of the
                    # attempt, then the task re-queues on the earliest slot.
                    waste = duration * self.faults.waste_fraction(rng)
                    heapreplace(slots, (start + waste, seq, speed, io_penalty, ex))
                    seq += 1
                    run.task_failures += 1
                    if exec_span is not None:
                        exec_span.add_event(
                            "task.retry", start + waste,
                            executor=ex.executor_id, attempt=attempts,
                        )
                    continue
                if attempts == max_attempts and attempts > 1:
                    # The final allowed attempt always succeeds here; a
                    # real system would abort the job at this point.
                    run.exhausted_retries += 1
                finish = start + duration
                if finish > finish_max:
                    finish_max = finish
                heapreplace(slots, (finish, seq, speed, io_penalty, ex))
                seq += 1
                if tracer is not None:
                    tspan = tracer.start_span(
                        "task", exec_span, start,
                        executor=ex.executor_id, attempts=attempts,
                    )
                    tspan.finish(finish)
                if specs is not None:
                    run.task_runs.append(
                        TaskRun(
                            spec=specs[i],
                            executor_id=ex.executor_id,
                            start=start,
                            finish=finish,
                            startup_charged=charged,
                        )
                    )
                break
        # Barrier: next stage iteration starts when the slowest task ends.
        return finish_max, seq

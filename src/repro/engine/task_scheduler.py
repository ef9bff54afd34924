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
from typing import Dict, List, Optional, Sequence, Tuple

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
        # (free_at, slot_seq, executor) heap — one entry per core.
        slots: List[tuple] = []
        seq = 0
        clock = start_time + self.overhead.batch_setup
        for ex in executors:
            for _ in range(ex.cores):
                slots.append((clock, seq, ex))
                seq += 1
        heapq.heapify(slots)
        coord = self.overhead.coordination_cost(len(executors))
        # Executor speed/penalty only change between batches: resolve the
        # property chains once per job, not once per attempt.
        ex_costs = {
            ex.executor_id: (ex.speed_factor, ex.io_penalty) for ex in executors
        }
        if traced:
            setup = tracer.start_span(
                "schedule", parent, start_time, phase="job_setup"
            )
            setup.finish(clock)

        for stage in job.stages:
            stage_start = clock
            # LPT order: longest tasks first minimizes makespan for list
            # scheduling and mirrors Spark's preference for large pending
            # tasks.  The order is a pure function of the stage, so it is
            # computed once here rather than once per iteration — iterated
            # ML stages re-run the same task set dozens of times.
            order = sorted(
                stage.tasks,
                key=lambda t: t.compute_cost + t.io_cost,
                reverse=True,
            )
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
                        tasks=stage.num_tasks,
                    )
                clock = self._run_task_set(
                    order, slots, clock, rng, run, ex_costs,
                    tracer=tracer if traced else None,
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
                    num_tasks=stage.num_tasks,
                    iterations=stage.iterations,
                )
            )
        run.finish = clock
        return run

    def _run_task_set(
        self,
        order: Sequence[TaskSpec],
        slots: List[tuple],
        barrier: float,
        rng: np.random.Generator,
        run: JobRun,
        ex_costs: Dict[int, Tuple[float, float]],
        tracer: Optional[Tracer] = None,
        exec_span: Optional[Span] = None,
    ) -> float:
        """Schedule one iteration of a stage's (LPT-ordered) tasks.

        ``order`` must already be in longest-processing-time-first order
        (the caller sorts once per stage); ``ex_costs`` maps executor id
        to ``(speed_factor, io_penalty)``.  Returns the new barrier.
        """
        if not order:
            return barrier
        task_spans = (
            tracer is not None and tracer.task_detail and exec_span is not None
        )
        noise = self.noise.draw(rng, len(order))
        finish_max = barrier
        seq = len(slots)
        # Every attempt takes the earliest slot and puts it back busy
        # until its end: one heapreplace.  The (free_at, seq) keys are
        # unique, so slots come out in the same order as with a pop and
        # a push.
        heapreplace = heapq.heapreplace
        task_dispatch = self.overhead.task_dispatch
        max_attempts = self.faults.max_attempts
        faults_active = self.faults.enabled and max_attempts > 1
        record_tasks = self.record_tasks
        # A task's duration: compute scaled by the executor's speed, I/O
        # by its disk penalty, times the drawn noise, plus a fresh
        # executor's one-time startup charge.
        for spec, noise_i in zip(order, noise.tolist()):
            compute_cost = spec.compute_cost
            io_cost = spec.io_cost
            attempts = 0
            while True:
                attempts += 1
                free_at, _, ex = slots[0]
                start = (free_at if free_at >= barrier else barrier) + task_dispatch
                startup = 0.0
                charged = False
                if not ex.initialized:
                    startup = self.overhead.executor_startup
                    ex.mark_initialized()
                    charged = True
                speed, io_penalty = ex_costs[ex.executor_id]
                duration = (
                    compute_cost / speed + io_cost * io_penalty
                ) * noise_i + startup
                may_fail = faults_active and attempts < max_attempts
                if may_fail and self.faults.attempt_fails(rng):
                    # Transient failure: the core is busy for part of the
                    # attempt, then the task re-queues on the earliest slot.
                    waste = duration * self.faults.waste_fraction(rng)
                    heapreplace(slots, (start + waste, seq, ex))
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
                heapreplace(slots, (finish, seq, ex))
                seq += 1
                if task_spans:
                    tspan = tracer.start_span(
                        "task", exec_span, start,
                        executor=ex.executor_id, attempts=attempts,
                    )
                    tspan.finish(finish)
                if record_tasks:
                    run.task_runs.append(
                        TaskRun(
                            spec=spec,
                            executor_id=ex.executor_id,
                            start=start,
                            finish=finish,
                            startup_charged=charged,
                        )
                    )
                break
        # Barrier: next stage iteration starts when the slowest task ends.
        return finish_max

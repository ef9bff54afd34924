"""Failure injection.

Real clusters lose task attempts to transient faults (executor GC
stalls, network resets, speculative kills); Spark retries a failed task
up to ``spark.task.maxFailures`` (default 4) times.  The fault model
injects such failures into the scheduler: a failed attempt wastes part
of the task's duration on its core before the task is re-queued,
inflating batch processing time — one more noise source NoStop must
tolerate (design goal "Noise Tolerance", §4.1).

Executor-level failures are modeled at the resource-manager level
(:meth:`repro.cluster.resource_manager.ResourceManager.fail_executor`):
the pool shrinks until the next configuration application restores the
target count — which NoStop does automatically on its next Adjust call,
demonstrating the scheme's transparency to infrastructure churn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Upper bound on the worst-case wasted work per task, expressed as a
#: multiple of the task's nominal duration: ``(max_attempts - 1)`` failed
#: attempts each wasting up to ``max_waste_fraction``.  Beyond this a
#: single task can inflate a batch by nearly an order of magnitude, which
#: no measurement protocol distinguishes from a hang.
MAX_WORST_CASE_WASTE = 8.0


@dataclass(frozen=True)
class FaultModel:
    """Transient task-failure injection parameters.

    Parameters
    ----------
    task_failure_prob:
        Probability that any given task attempt fails mid-run.  Must be
        in ``[0, 1)``: a probability of exactly 1.0 would make every
        retry fail too, so no task could ever complete.
    max_attempts:
        Attempts per task before the failure budget is exhausted
        (Spark's ``spark.task.maxFailures``); the final attempt always
        succeeds in the simulation (a real system would abort the job —
        tracked via ``JobRun.exhausted_retries`` instead of crashing the
        experiment).
    min_waste_fraction, max_waste_fraction:
        A failed attempt occupies its core for a uniform fraction of the
        task's nominal duration before failing.
    """

    task_failure_prob: float = 0.0
    max_attempts: int = 4
    min_waste_fraction: float = 0.1
    max_waste_fraction: float = 0.9

    def __post_init__(self) -> None:
        if not (0.0 <= self.task_failure_prob < 1.0):
            raise ValueError(
                f"task_failure_prob must be in [0, 1), got {self.task_failure_prob}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not (0.0 <= self.min_waste_fraction <= self.max_waste_fraction <= 1.0):
            raise ValueError("need 0 <= min_waste <= max_waste <= 1")
        worst = (self.max_attempts - 1) * self.max_waste_fraction
        if worst > MAX_WORST_CASE_WASTE:
            raise ValueError(
                "worst-case wasted work per task is "
                f"{worst:.2f}x its duration ((max_attempts - 1) * "
                f"max_waste_fraction); must be <= {MAX_WORST_CASE_WASTE}"
            )

    @property
    def enabled(self) -> bool:
        return self.task_failure_prob > 0.0

    def attempt_fails(self, rng: np.random.Generator) -> bool:
        return self.enabled and rng.random() < self.task_failure_prob

    def waste_fraction(self, rng: np.random.Generator) -> float:
        return float(
            rng.uniform(self.min_waste_fraction, self.max_waste_fraction)
        )


#: No failures (the default for calibration-sensitive experiments).
NO_FAULTS = FaultModel(task_failure_prob=0.0)

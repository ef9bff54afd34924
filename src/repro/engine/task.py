"""Task model.

A task is the unit of work Spark schedules onto an executor core: it
processes one partition of a stage's input.  Task *cost* is expressed in
baseline-seconds of compute plus an I/O fraction; the actual wall-clock
duration on a given executor is derived from the hosting node's speed
factor and disk penalty, plus multiplicative noise drawn by the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TaskSpec:
    """Static description of a task before it is scheduled.

    Parameters
    ----------
    task_id:
        Index of the task within its stage.
    records:
        Number of input records in the task's partition.
    compute_cost:
        Seconds of pure compute on a ``speed_factor == 1.0`` core.
    io_cost:
        Seconds of I/O (shuffle read/write, HDFS output) on an SSD node;
        HDD nodes multiply this by their penalty.
    """

    task_id: int
    records: int
    compute_cost: float
    io_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.records < 0:
            raise ValueError(f"records must be >= 0, got {self.records}")
        if self.compute_cost < 0:
            raise ValueError(f"compute_cost must be >= 0, got {self.compute_cost}")
        if self.io_cost < 0:
            raise ValueError(f"io_cost must be >= 0, got {self.io_cost}")


@dataclass
class TaskRun:
    """Record of one executed task (who ran it, when, for how long)."""

    spec: TaskSpec
    executor_id: int
    start: float
    finish: float
    startup_charged: bool = field(default=False)

    @property
    def duration(self) -> float:
        return self.finish - self.start

    def __post_init__(self) -> None:
        if self.finish < self.start:
            raise ValueError(
                f"task finish {self.finish} precedes start {self.start}"
            )

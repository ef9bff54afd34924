"""Stage model.

A Spark job is a DAG of stages separated by shuffle boundaries.  For the
micro-batch workloads in the paper this DAG is a simple chain (map-style
stages feeding reduce-style stages), so a stage here carries its tasks
plus an optional iteration count: ML workloads (streaming logistic /
linear regression) rerun their gradient stage once per model iteration,
which is the paper's explanation for their noisier batch processing time
(§6.3 — "the batch processing time of an unfitted model usually takes
longer than that of a fitted model").

A stage holds its tasks as *runs* of equal tasks, in task-id order: a
job built by a workload has only two task sizes per stage, so the
scheduler costs a few runs instead of one object per partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .task import TaskSpec

#: ``(count, records, compute_cost, io_cost)``: ``count`` consecutive
#: tasks with the same :class:`TaskSpec` fields.
Run = Tuple[int, int, float, float]


@dataclass(init=False, slots=True)
class Stage:
    """A set of independent tasks plus a barrier at the end.

    Parameters
    ----------
    stage_id:
        Position in the job's chain.
    name:
        Human-readable label (e.g. ``"map"``, ``"reduceByKey"``,
        ``"gradient"``).
    tasks:
        Partition-level task specs, ``task_id`` equal to position; all
        tasks of a stage may run in parallel, and the stage completes
        when the last task does.  Stored as runs.
    iterations:
        How many times the stage body is executed back to back.  Modeling
        convergence loops this way keeps the DAG static while letting the
        cost model vary the iteration count per batch.
    runs:
        The tasks as runs instead of ``tasks`` (the workloads' job
        factory form); each run's size is validated once.
    """

    stage_id: int
    name: str
    runs: List[Run]
    iterations: int

    def __init__(
        self,
        stage_id: int,
        name: str,
        tasks: Sequence[TaskSpec] = (),
        iterations: int = 1,
        runs: Sequence[Run] = (),
    ) -> None:
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if tasks and runs:
            raise ValueError("give a stage tasks or runs, not both")
        self.stage_id = stage_id
        self.name = name
        self.iterations = iterations
        self.runs = _runs_of(tasks) if tasks else [run for run in runs if run[0]]
        if any(min(run) < 0 for run in self.runs):
            raise ValueError(f"run fields must be >= 0, got {self.runs}")

    @property
    def tasks(self) -> List[TaskSpec]:
        """The task specs in id order, built on each read."""
        sizes = [run[1:] for run in self.runs for _ in range(run[0])]
        return [TaskSpec(tid, *size) for tid, size in enumerate(sizes)]

    @property
    def num_tasks(self) -> int:
        return sum(run[0] for run in self.runs)

    @property
    def total_records(self) -> int:
        return sum(count * records for count, records, _, _ in self.runs)

    @property
    def total_compute_cost(self) -> float:
        """Baseline compute-seconds across all tasks and iterations."""
        return self.iterations * sum(
            run[2] for run in self.runs for _ in range(run[0])
        )


def _runs_of(tasks: Sequence[TaskSpec]) -> List[Run]:
    """Group consecutive equal tasks into runs."""
    runs: List[Run] = []
    for position, t in enumerate(tasks):
        if t.task_id != position:
            raise ValueError(
                f"task_id {t.task_id} at position {position}: "
                "task ids must be 0, 1, 2, ... in order"
            )
        size = (t.records, t.compute_cost, t.io_cost)
        if runs and runs[-1][1:] == size:
            runs[-1] = (runs[-1][0] + 1, *size)
        else:
            runs.append((1, *size))
    return runs

"""Stage model.

A Spark job is a DAG of stages separated by shuffle boundaries.  For the
micro-batch workloads in the paper this DAG is a simple chain (map-style
stages feeding reduce-style stages), so a stage here carries a list of
tasks plus an optional iteration count: ML workloads (streaming logistic /
linear regression) rerun their gradient stage once per model iteration,
which is the paper's explanation for their noisier batch processing time
(§6.3 — "the batch processing time of an unfitted model usually takes
longer than that of a fitted model").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .task import TaskSpec


@dataclass
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
        Partition-level task specs; all tasks of a stage may run in
        parallel, and the stage completes when the last task does.
    iterations:
        How many times the stage body is executed back to back.  Modeling
        convergence loops this way keeps the DAG static while letting the
        cost model vary the iteration count per batch.
    """

    stage_id: int
    name: str
    tasks: List[TaskSpec] = field(default_factory=list)
    iterations: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def total_records(self) -> int:
        return sum(t.records for t in self.tasks)

    @property
    def total_compute_cost(self) -> float:
        """Baseline compute-seconds across all tasks and iterations."""
        return self.iterations * sum(t.compute_cost for t in self.tasks)

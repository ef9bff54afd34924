"""Batch job model.

Every micro-batch that Spark Streaming hands to the Spark engine becomes a
:class:`BatchJob`: a chain of stages built by the workload for the number
of records in the batch.  The engine executes stages in order (a stage
starts only after its predecessor's barrier), which reproduces the
map → shuffle → reduce critical path of the real system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .stage import Stage


@dataclass
class BatchJob:
    """A chain of stages derived from one micro-batch.

    Parameters
    ----------
    job_id:
        Monotonic id assigned by the streaming job generator.
    batch_time:
        Simulation time at which the source batch closed (its "batch time"
        in Spark Streaming terminology).
    records:
        Total records in the batch.
    stages:
        Ordered stage chain.
    workload:
        Name of the generating workload, for reporting.
    """

    job_id: int
    batch_time: float
    records: int
    stages: List[Stage] = field(default_factory=list)
    workload: str = ""

    def __post_init__(self) -> None:
        if self.records < 0:
            raise ValueError(f"records must be >= 0, got {self.records}")
        seen = set()
        for s in self.stages:
            if s.stage_id in seen:
                raise ValueError(f"duplicate stage id {s.stage_id} in job {self.job_id}")
            seen.add(s.stage_id)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_tasks(self) -> int:
        return sum(s.num_tasks * s.iterations for s in self.stages)

    @property
    def total_compute_cost(self) -> float:
        """Baseline compute-seconds over the whole job."""
        return sum(s.total_compute_cost for s in self.stages)

    def critical_path_lower_bound(self, total_cores: int, speed: float = 1.0) -> float:
        """Cheap lower bound on the job's makespan with ``total_cores`` cores.

        Used by tests as an invariant (the scheduler can never beat perfect
        parallelism) and by the back-pressure estimator as a rate hint.
        """
        if total_cores < 1:
            raise ValueError("total_cores must be >= 1")
        bound = 0.0
        for s in self.stages:
            per_iter = sum(t.compute_cost for t in s.tasks) / (total_cores * speed)
            longest = max((t.compute_cost / speed for t in s.tasks), default=0.0)
            bound += s.iterations * max(per_iter, longest)
        return bound

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
    def num_tasks(self) -> int:
        return sum(s.num_tasks * s.iterations for s in self.stages)

    @property
    def total_compute_cost(self) -> float:
        """Baseline compute-seconds over the whole job."""
        return sum(s.total_compute_cost for s in self.stages)

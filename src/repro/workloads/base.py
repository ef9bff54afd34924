"""Workload interface.

A workload plays two roles in this reproduction:

1. **Job factory** for the simulator — :meth:`Workload.build_job` turns a
   micro-batch (a record count at a batch time) into a
   :class:`~repro.engine.job.BatchJob` whose task costs come from the
   workload's calibrated :class:`~repro.workloads.cost_models.WorkloadCostModel`.
2. **Real compute kernel** — :meth:`Workload.run_kernel` genuinely
   processes synthesized record payloads (trains a model, counts words,
   parses logs), so examples and tests can demonstrate end-to-end
   semantics beyond the cost model.

Both roles share the same stage structure, documented per workload.
"""

from __future__ import annotations

import abc
from typing import Any, List, Sequence

import numpy as np

from repro.engine.job import BatchJob
from repro.engine.stage import Stage
from repro.engine.task import TaskSpec

from .cost_models import WorkloadCostModel


class Workload(abc.ABC):
    """Base class for the paper's four streaming workloads."""

    #: Workload name used in experiment tables and rate-band lookups.
    name: str = ""
    #: Payload kind understood by :class:`repro.datagen.DataGenerator`.
    payload_kind: str = "text"
    #: Whether :meth:`effective_records` slides a window of past batches,
    #: so it must run once per formed batch, in order.
    windowed: bool = False

    def __init__(self, cost_model: WorkloadCostModel, partitions: int = 40) -> None:
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        self.cost_model = cost_model
        self.partitions = partitions
        self._job_counter = 0

    # -- job factory --------------------------------------------------------

    def effective_records(self, records: int) -> int:
        """Records the job must actually *process* for this batch.

        Identity for plain workloads; windowed workloads override it to
        cover their window's worth of data (see
        :mod:`repro.workloads.windowed`).
        """
        return records

    def build_job(
        self,
        batch_time: float,
        records: int,
        rng: np.random.Generator,
    ) -> BatchJob:
        """Construct the batch job for ``records`` *newly arrived* records.

        Task costs are sized by :meth:`effective_records` (identity
        except for windowed workloads); records are split evenly across
        ``self.partitions`` tasks per stage (the direct Kafka stream
        gives one task per partition); iteration counts for
        convergence-loop stages are drawn from the cost model's
        iteration law.
        """
        if records < 0:
            raise ValueError(f"records must be >= 0, got {records}")
        cost_records = self.effective_records(records)
        iters = self.cost_model.iterations.draw(rng)
        partitions = self.partitions
        per_task, rem = divmod(cost_records, partitions)
        stages: List[Stage] = []
        for sid, sc in enumerate(self.cost_model.stages):
            # A stage has two task sizes: the first ``rem`` tasks take one
            # record more.  Each size's costs are computed once.
            fixed = sc.fixed_compute / partitions
            sizes = [
                (n, fixed + n * sc.compute_per_record, n * sc.io_per_record)
                for n in (per_task, per_task + 1)
            ]
            tasks = [
                TaskSpec(tid, *sizes[tid < rem]) for tid in range(partitions)
            ]
            stages.append(
                Stage(
                    stage_id=sid,
                    name=sc.name,
                    tasks=tasks,
                    iterations=iters if sc.name in self.cost_model.iterated_stages else 1,
                )
            )
        job = BatchJob(
            job_id=self._job_counter,
            batch_time=batch_time,
            records=records,
            stages=stages,
            workload=self.name,
        )
        self._job_counter += 1
        return job

    # -- real computation -----------------------------------------------------

    @abc.abstractmethod
    def run_kernel(self, payloads: Sequence) -> Any:
        """Actually process ``payloads`` and return the workload's output."""

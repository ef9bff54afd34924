"""Unit tests for stage and job models."""

import numpy as np
import pytest

from repro.cluster.cluster import homogeneous_cluster
from repro.cluster.resource_manager import ResourceManager
from repro.engine.job import BatchJob
from repro.engine.overhead import ZERO_OVERHEAD
from repro.engine.stage import Stage
from repro.engine.task import TaskSpec
from repro.engine.task_scheduler import NoiseModel, TaskScheduler


def make_stage(stage_id=0, name="map", tasks=4, cost=1.0, iterations=1):
    return Stage(
        stage_id=stage_id,
        name=name,
        tasks=[
            TaskSpec(task_id=i, records=100, compute_cost=cost)
            for i in range(tasks)
        ],
        iterations=iterations,
    )


class TestStage:
    def test_totals(self):
        s = make_stage(tasks=4, cost=2.0, iterations=3)
        assert s.num_tasks == 4
        assert s.total_records == 400
        assert s.total_compute_cost == pytest.approx(3 * 4 * 2.0)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            make_stage(iterations=0)


class TestBatchJob:
    def test_aggregates_over_stages(self):
        job = BatchJob(
            job_id=1,
            batch_time=10.0,
            records=800,
            stages=[
                make_stage(0, "map", tasks=4, cost=1.0),
                make_stage(1, "reduce", tasks=2, cost=0.5, iterations=2),
            ],
        )
        assert len(job.stages) == 2
        assert job.num_tasks == 4 + 2 * 2
        assert job.total_compute_cost == pytest.approx(4 * 1.0 + 2 * 2 * 0.5)

    def test_duplicate_stage_ids_rejected(self):
        with pytest.raises(ValueError):
            BatchJob(
                job_id=1,
                batch_time=0.0,
                records=0,
                stages=[make_stage(0), make_stage(0, name="other")],
            )

    def test_negative_records_rejected(self):
        with pytest.raises(ValueError):
            BatchJob(job_id=1, batch_time=0.0, records=-5)

    def test_critical_path_respects_longest_task(self):
        stage = Stage(
            stage_id=0,
            name="skewed",
            tasks=[
                TaskSpec(task_id=0, records=1, compute_cost=10.0),
                TaskSpec(task_id=1, records=1, compute_cost=0.1),
            ],
        )
        job = BatchJob(job_id=1, batch_time=0.0, records=2, stages=[stage])
        rm = ResourceManager(homogeneous_cluster(workers=4, cores_per_node=8))
        rm.scale_to(16)
        sched = TaskScheduler(overhead=ZERO_OVERHEAD, noise=NoiseModel(sigma=0.0))
        run = sched.run_job(job, rm.executors, 0.0, np.random.default_rng(0))
        # Idle cores to spare cannot beat the longest task.
        assert run.processing_time == pytest.approx(10.0)

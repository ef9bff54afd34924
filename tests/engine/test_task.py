"""Unit tests for the task model."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.executor import Executor
from repro.cluster.node import I5_9400, XEON_BRONZE_3204, DiskType, Node, NodeRole
from repro.engine.job import BatchJob
from repro.engine.overhead import ZERO_OVERHEAD
from repro.engine.stage import Stage
from repro.engine.task import TaskRun, TaskSpec
from repro.engine.task_scheduler import NoiseModel, TaskScheduler


def fast_executor():
    return Executor(1, Node(2, I5_9400, DiskType.SSD, NodeRole.WORKER))


def slow_hdd_executor():
    return Executor(2, Node(3, XEON_BRONZE_3204, DiskType.HDD, NodeRole.WORKER))


def duration(spec, executor, startup=0.0, sigma=0.0):
    """The task's duration: the makespan of a one-task job on a fresh
    ``executor`` with no scheduling overhead (seeded noise)."""
    sched = TaskScheduler(
        overhead=dataclasses.replace(ZERO_OVERHEAD, executor_startup=startup),
        noise=NoiseModel(sigma=sigma),
    )
    stage = Stage(stage_id=0, name="map", tasks=[spec])
    job = BatchJob(job_id=0, batch_time=0.0, records=spec.records,
                   stages=[stage])
    run = sched.run_job(job, [executor], 0.0, np.random.default_rng(0))
    return run.processing_time


class TestTaskSpec:
    def test_duration_scales_with_node_speed(self):
        spec = TaskSpec(task_id=0, records=1000, compute_cost=1.0)
        fast = duration(spec, fast_executor())
        slow = duration(spec, slow_hdd_executor())
        assert slow == pytest.approx(fast / XEON_BRONZE_3204.speed_factor)

    def test_io_pays_disk_penalty(self):
        spec = TaskSpec(task_id=0, records=1000, compute_cost=0.0, io_cost=1.0)
        assert duration(spec, fast_executor()) == pytest.approx(1.0)
        assert duration(spec, slow_hdd_executor()) == pytest.approx(
            DiskType.HDD.io_penalty
        )

    def test_noise_multiplies_work_not_startup(self):
        one = TaskSpec(task_id=0, records=10, compute_cost=1.0)
        two = TaskSpec(task_id=0, records=10, compute_cost=2.0)
        noisy = duration(one, fast_executor(), sigma=0.5)
        assert noisy != pytest.approx(1.0)
        work = duration(two, fast_executor(), sigma=0.5)
        assert work == pytest.approx(2.0 * noisy)
        assert duration(
            two, fast_executor(), startup=1.0, sigma=0.5
        ) == pytest.approx(work + 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"records": -1, "compute_cost": 1.0},
        {"records": 1, "compute_cost": -1.0},
        {"records": 1, "compute_cost": 1.0, "io_cost": -0.1},
    ])
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TaskSpec(task_id=0, **kwargs)


class TestTaskRun:
    def test_duration(self):
        spec = TaskSpec(task_id=0, records=1, compute_cost=1.0)
        run = TaskRun(spec=spec, executor_id=1, start=10.0, finish=12.5)
        assert run.duration == pytest.approx(2.5)

    def test_finish_before_start_rejected(self):
        spec = TaskSpec(task_id=0, records=1, compute_cost=1.0)
        with pytest.raises(ValueError):
            TaskRun(spec=spec, executor_id=1, start=10.0, finish=9.0)

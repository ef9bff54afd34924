"""Tests for failure injection and task retry."""

import numpy as np
import pytest

from repro.cluster.cluster import homogeneous_cluster
from repro.cluster.resource_manager import ResourceManager
from repro.engine.faults import NO_FAULTS, FaultModel
from repro.engine.overhead import ZERO_OVERHEAD
from repro.engine.task_scheduler import NoiseModel, TaskScheduler

from .test_task_scheduler import executors, make_job


@pytest.fixture
def rng():
    return np.random.default_rng(1)


class TestFaultModel:
    def test_disabled_by_default(self, rng):
        assert not NO_FAULTS.enabled
        assert not NO_FAULTS.attempt_fails(rng)

    def test_waste_fraction_bounded(self, rng):
        fm = FaultModel(task_failure_prob=0.5, min_waste_fraction=0.2,
                        max_waste_fraction=0.6)
        for _ in range(50):
            w = fm.waste_fraction(rng)
            assert 0.2 <= w <= 0.6

    @pytest.mark.parametrize("kwargs", [
        {"task_failure_prob": 1.0},
        {"task_failure_prob": -0.1},
        {"task_failure_prob": 0.1, "max_attempts": 0},
        {"task_failure_prob": 0.1, "min_waste_fraction": 0.9,
         "max_waste_fraction": 0.5},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultModel(**kwargs)

    def test_certain_failure_rejected(self):
        # Docstring range is [0, 1): prob 1.0 means no retry could ever
        # succeed, so no task would ever complete.
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            FaultModel(task_failure_prob=1.0)
        FaultModel(task_failure_prob=0.999)  # just inside the range

    def test_runaway_retry_waste_rejected(self):
        # (max_attempts - 1) * max_waste_fraction bounds the worst-case
        # wasted work per task; an unbounded combination turns a single
        # task into an effective hang.
        with pytest.raises(ValueError, match="worst-case"):
            FaultModel(task_failure_prob=0.1, max_attempts=20,
                       max_waste_fraction=0.9)
        # The Spark-default envelope (4 attempts, 0.9 waste) stays legal.
        FaultModel(task_failure_prob=0.1, max_attempts=4,
                   max_waste_fraction=0.9)


class TestRetryScheduling:
    def test_failures_inflate_makespan(self, rng):
        job = make_job(tasks=16, cost=1.0)
        clean_sched = TaskScheduler(
            overhead=ZERO_OVERHEAD, noise=NoiseModel(sigma=0.0)
        )
        faulty_sched = TaskScheduler(
            overhead=ZERO_OVERHEAD,
            noise=NoiseModel(sigma=0.0),
            faults=FaultModel(task_failure_prob=0.3),
        )
        clean = clean_sched.run_job(job, executors(4), 0.0, np.random.default_rng(1))
        faulty = faulty_sched.run_job(
            make_job(tasks=16, cost=1.0), executors(4), 0.0, np.random.default_rng(1)
        )
        assert faulty.task_failures > 0
        assert faulty.processing_time > clean.processing_time

    def test_all_tasks_eventually_complete(self, rng):
        sched = TaskScheduler(
            overhead=ZERO_OVERHEAD,
            noise=NoiseModel(sigma=0.0),
            record_tasks=True,
            faults=FaultModel(task_failure_prob=0.4),
        )
        job = make_job(tasks=10, cost=0.5)
        run = sched.run_job(job, executors(3), 0.0, rng)
        assert len(run.task_runs) == 10  # one success record per task

    def test_exhausted_retries_tracked_under_heavy_faults(self, rng):
        sched = TaskScheduler(
            overhead=ZERO_OVERHEAD,
            noise=NoiseModel(sigma=0.0),
            faults=FaultModel(task_failure_prob=0.9, max_attempts=2),
        )
        run = sched.run_job(make_job(tasks=50, cost=0.1), executors(4), 0.0, rng)
        # p=0.9 with 2 attempts: ~90% of tasks hit their final attempt.
        assert run.exhausted_retries > 20
        assert run.task_failures >= run.exhausted_retries

    def test_no_faults_means_no_failures(self, rng):
        sched = TaskScheduler(overhead=ZERO_OVERHEAD, noise=NoiseModel(sigma=0.0))
        run = sched.run_job(make_job(tasks=10), executors(4), 0.0, rng)
        assert run.task_failures == 0
        assert run.exhausted_retries == 0


class TestExecutorFailure:
    def test_fail_executor_shrinks_pool_and_frees_node(self):
        rm = ResourceManager(homogeneous_cluster(workers=2, cores_per_node=4))
        rm.scale_to(4)
        used_before = sum(n.used_cores for n in rm.cluster.workers)
        victim = rm.fail_executor()
        assert rm.executor_count == 3
        assert rm.executor_failures == 1
        assert sum(n.used_cores for n in rm.cluster.workers) == used_before - 1
        assert victim not in [e.executor_id for e in rm.executors]

    def test_scale_to_restores_target(self):
        rm = ResourceManager(homogeneous_cluster(workers=2, cores_per_node=4))
        rm.scale_to(5)
        rm.fail_executor()
        rm.scale_to(5)
        assert rm.executor_count == 5

    def test_fail_on_empty_pool_raises(self):
        rm = ResourceManager(homogeneous_cluster(workers=1))
        with pytest.raises(RuntimeError):
            rm.fail_executor()

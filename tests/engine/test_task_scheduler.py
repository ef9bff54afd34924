"""Unit tests for the LPT task scheduler."""

import numpy as np
import pytest

from repro.cluster.cluster import homogeneous_cluster, paper_cluster
from repro.cluster.resource_manager import ResourceManager
from repro.engine.job import BatchJob
from repro.engine.overhead import ZERO_OVERHEAD, OverheadModel
from repro.engine.stage import Stage
from repro.engine.task import TaskSpec
from repro.engine.task_scheduler import (
    NoExecutorsError,
    NoiseModel,
    TaskScheduler,
)


def make_job(tasks=8, cost=1.0, stages=1, iterations=1, records=100):
    stage_list = [
        Stage(
            stage_id=s,
            name=f"s{s}",
            tasks=[
                TaskSpec(task_id=i, records=records, compute_cost=cost)
                for i in range(tasks)
            ],
            iterations=iterations,
        )
        for s in range(stages)
    ]
    return BatchJob(
        job_id=0, batch_time=0.0, records=records * tasks, stages=stage_list
    )


def executors(n, cluster=None):
    rm = ResourceManager(cluster or homogeneous_cluster(workers=4, cores_per_node=8))
    rm.scale_to(n)
    return rm.executors


@pytest.fixture
def sched():
    return TaskScheduler(overhead=ZERO_OVERHEAD, noise=NoiseModel(sigma=0.0))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestScheduling:
    def test_no_executors_raises(self, sched, rng):
        with pytest.raises(NoExecutorsError):
            sched.run_job(make_job(), [], 0.0, rng)

    def test_perfect_parallelism_no_overhead(self, sched, rng):
        # 8 unit tasks on 8 homogeneous cores: makespan = 1 task.
        run = sched.run_job(make_job(tasks=8, cost=1.0), executors(8), 0.0, rng)
        assert run.processing_time == pytest.approx(1.0, rel=1e-6)

    def test_halving_cores_doubles_makespan(self, sched, rng):
        r8 = sched.run_job(make_job(tasks=8, cost=1.0), executors(8), 0.0, rng)
        r4 = sched.run_job(make_job(tasks=8, cost=1.0), executors(4), 0.0, rng)
        assert r4.processing_time == pytest.approx(2 * r8.processing_time, rel=1e-6)

    def test_never_beats_critical_path_bound(self, rng):
        sched = TaskScheduler(overhead=ZERO_OVERHEAD, noise=NoiseModel(sigma=0.1))
        job = make_job(tasks=13, cost=0.7, stages=2)
        ex = executors(5)
        run = sched.run_job(job, ex, 0.0, rng)
        # Perfect parallelism over every core, or the longest task if
        # that is longer, per stage.  Noise is mean-1 but individual
        # draws vary; allow generous slack below via the 0.5 factor.
        cores = sum(e.cores for e in ex)
        bound = sum(
            s.iterations * max(
                sum(t.compute_cost for t in s.tasks) / cores,
                max(t.compute_cost for t in s.tasks),
            )
            for s in job.stages
        )
        assert run.processing_time >= 0.5 * bound

    def test_stages_are_barriers(self, sched, rng):
        one = sched.run_job(make_job(tasks=4, cost=1.0, stages=1), executors(4), 0.0, rng)
        two = sched.run_job(make_job(tasks=4, cost=1.0, stages=2), executors(4), 0.0, rng)
        assert two.processing_time == pytest.approx(2 * one.processing_time, rel=1e-6)

    def test_iterations_multiply_stage_time(self, sched, rng):
        once = sched.run_job(
            make_job(tasks=4, cost=1.0, iterations=1), executors(4), 0.0, rng
        )
        thrice = sched.run_job(
            make_job(tasks=4, cost=1.0, iterations=3), executors(4), 0.0, rng
        )
        assert thrice.processing_time == pytest.approx(
            3 * once.processing_time, rel=1e-6
        )

    def test_start_time_offsets_run(self, sched, rng):
        run = sched.run_job(make_job(), executors(4), 100.0, rng)
        assert run.start == 100.0
        assert run.finish > 100.0

    def test_heterogeneous_cluster_slower_than_homogeneous(self, sched, rng):
        # The paper cluster includes a 0.66-speed Xeon; with executors
        # pinned there, makespan must exceed the all-I5 case.
        slow_ex = executors(12, paper_cluster())
        fast_ex = executors(12)
        job = make_job(tasks=24, cost=1.0)
        slow = sched.run_job(job, slow_ex, 0.0, rng)
        fast = sched.run_job(job, fast_ex, 0.0, np.random.default_rng(0))
        assert slow.processing_time > fast.processing_time


class TestOverheadCharging:
    def test_fresh_executor_pays_startup(self, rng):
        overhead = OverheadModel(
            batch_setup=0.0,
            stage_setup=0.0,
            task_dispatch=0.0,
            coordination_coeff=0.0,
            executor_startup=5.0,
        )
        sched = TaskScheduler(overhead=overhead, noise=NoiseModel(sigma=0.0))
        ex = executors(2)
        run1 = sched.run_job(make_job(tasks=2, cost=1.0), ex, 0.0, rng)
        assert run1.processing_time == pytest.approx(6.0)
        assert all(e.initialized for e in ex)
        # Second job: startup already paid.
        run2 = sched.run_job(make_job(tasks=2, cost=1.0), ex, run1.finish, rng)
        assert run2.processing_time == pytest.approx(1.0)

    def test_batch_setup_charged_once(self, rng):
        overhead = OverheadModel(
            batch_setup=2.0,
            stage_setup=0.0,
            task_dispatch=0.0,
            coordination_coeff=0.0,
            executor_startup=0.0,
        )
        sched = TaskScheduler(overhead=overhead, noise=NoiseModel(sigma=0.0))
        run = sched.run_job(make_job(tasks=2, cost=1.0, stages=2), executors(2), 0.0, rng)
        assert run.processing_time == pytest.approx(2.0 + 2 * 1.0)

    def test_record_tasks_collects_runs(self, rng):
        sched = TaskScheduler(
            overhead=ZERO_OVERHEAD, noise=NoiseModel(sigma=0.0), record_tasks=True
        )
        run = sched.run_job(make_job(tasks=6), executors(3), 0.0, rng)
        assert len(run.task_runs) == 6
        assert all(t.finish > t.start for t in run.task_runs)


class TestNoiseModel:
    def test_zero_sigma_is_deterministic(self, rng):
        assert np.all(NoiseModel(sigma=0.0).draw(rng, 10) == 1.0)

    def test_noise_is_mean_one(self):
        rng = np.random.default_rng(7)
        draws = NoiseModel(sigma=0.2).draw(rng, 200_000)
        assert np.mean(draws) == pytest.approx(1.0, abs=0.01)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma=-0.1)

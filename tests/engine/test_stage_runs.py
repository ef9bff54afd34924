"""A stage built by ``Workload.build_job`` (two runs of equal tasks) and
the same stage as a hand-written task list are one stage: same counters,
same task specs, same schedule."""

import copy

import numpy as np
import pytest

from repro.cluster.cluster import paper_cluster
from repro.cluster.resource_manager import ResourceManager
from repro.engine.faults import FaultModel
from repro.engine.job import BatchJob
from repro.engine.stage import Stage
from repro.engine.task import TaskSpec
from repro.engine.task_scheduler import TaskScheduler
from repro.workloads.logistic_regression import StreamingLogisticRegression

PARTITIONS = 7
RECORDS = 1003  # 143 per task, and the first 2 tasks take one more


def built_job():
    wl = StreamingLogisticRegression()
    wl.partitions = PARTITIONS
    return wl, wl.build_job(5.0, RECORDS, np.random.default_rng(4))


def explicit_job(wl, built):
    """``built`` with every stage as a hand-written task list."""
    per_task, rem = divmod(RECORDS, PARTITIONS)
    stages = []
    for sc, stage in zip(wl.COST_MODEL.stages, built.stages):
        tasks = []
        for tid in range(PARTITIONS):
            n = per_task + 1 if tid < rem else per_task
            tasks.append(TaskSpec(
                task_id=tid,
                records=n,
                compute_cost=sc.fixed_compute / PARTITIONS
                + n * sc.compute_per_record,
                io_cost=n * sc.io_per_record,
            ))
        stages.append(Stage(
            stage_id=stage.stage_id, name=stage.name, tasks=tasks,
            iterations=stage.iterations,
        ))
    return BatchJob(
        job_id=built.job_id, batch_time=built.batch_time,
        records=built.records, stages=stages, workload=built.workload,
    )


def test_build_job_makes_two_runs_per_stage():
    _, job = built_job()
    for stage in job.stages:
        assert [run[:2] for run in stage.runs] == [(2, 144), (5, 143)]


def test_counters_and_specs_match_the_explicit_form():
    wl, built = built_job()
    explicit = explicit_job(wl, built)
    assert built == explicit
    assert built.num_tasks == explicit.num_tasks
    assert built.total_compute_cost == explicit.total_compute_cost
    for got, want in zip(built.stages, explicit.stages):
        assert got.num_tasks == want.num_tasks == PARTITIONS
        assert got.total_records == want.total_records == RECORDS
        assert got.total_compute_cost == want.total_compute_cost
        assert got.tasks == want.tasks


@pytest.mark.parametrize("record_tasks,failure_prob", [
    (False, 0.0), (True, 0.0), (False, 0.3), (True, 0.3),
])
def test_same_job_run_as_the_explicit_form(record_tasks, failure_prob):
    wl, built = built_job()
    explicit = explicit_job(wl, built)
    rm = ResourceManager(paper_cluster())
    rm.scale_to(10)
    scheduler = TaskScheduler(
        record_tasks=record_tasks,
        faults=FaultModel(task_failure_prob=failure_prob, max_attempts=4),
    )
    runs, states = [], []
    for job, pool in ((built, rm.executors),
                      (explicit, copy.deepcopy(rm.executors))):
        rng = np.random.default_rng(11)
        runs.append(scheduler.run_job(job, pool, 2.0, rng))
        states.append(rng.bit_generator.state)
    got, want = runs
    assert got == want
    assert got.stage_runs == want.stage_runs
    assert states[0] == states[1]
    assert len(got.task_runs) == (
        sum(s.num_tasks * s.iterations for s in built.stages)
        if record_tasks else 0
    )


class TestStageForms:
    def test_equal_tasks_group_into_runs(self):
        tasks = [TaskSpec(i, 3, 0.5) for i in range(3)] + [TaskSpec(3, 2, 0.4)]
        stage = Stage(stage_id=0, name="map", tasks=tasks)
        assert stage.runs == [(3, 3, 0.5, 0.0), (1, 2, 0.4, 0.0)]
        assert stage.tasks == tasks

    def test_empty_runs_are_dropped(self):
        stage = Stage(0, "map", runs=[(0, 5, 1.0, 0.0), (2, 4, 1.0, 0.0)])
        assert stage.runs == [(2, 4, 1.0, 0.0)]
        assert stage.num_tasks == 2

    def test_task_ids_must_be_positions(self):
        with pytest.raises(ValueError):
            Stage(0, "map", tasks=[TaskSpec(1, 1, 1.0)])

    @pytest.mark.parametrize("run", [
        (-1, 1, 1.0, 0.0), (1, -1, 1.0, 0.0), (1, 1, -1.0, 0.0),
        (1, 1, 1.0, -0.1),
    ])
    def test_negative_run_fields_rejected(self, run):
        with pytest.raises(ValueError):
            Stage(0, "map", runs=[run])

    def test_tasks_and_runs_together_rejected(self):
        with pytest.raises(ValueError):
            Stage(0, "map", tasks=[TaskSpec(0, 1, 1.0)],
                  runs=[(1, 1, 1.0, 0.0)])

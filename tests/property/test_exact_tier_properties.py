"""Property tests pinning the exact tier's fast paths to reference code.

``Topic.append_uniform`` checks a span once and extends every partition
through an unchecked path; ``TaskScheduler`` takes the earliest slot
with one ``heapreplace`` and resolves executor costs once per job.
Each property below rebuilds the straightforward form — a checked
``Partition.append`` per partition, and a ``heappop``/``heappush``
scheduling loop — and requires the same logs and the same schedules,
bit for bit.
"""

import copy
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import paper_cluster
from repro.cluster.resource_manager import ResourceManager
from repro.engine.faults import FaultModel
from repro.engine.job import BatchJob
from repro.engine.overhead import DEFAULT_OVERHEAD
from repro.engine.stage import Stage
from repro.engine.task import TaskRun, TaskSpec
from repro.engine.task_scheduler import JobRun, NoiseModel, TaskScheduler
from repro.kafka.partition import Partition
from repro.kafka.topic import Topic

# -- Kafka: one check per topic append ------------------------------------


def _reference_append(partitions, t0, t1, count):
    """Spread ``count`` over ``partitions`` with a checked append each."""
    n = len(partitions)
    base, rem = divmod(count, n)
    start = partitions[0].nonempty_appends
    for i, p in enumerate(partitions):
        p.append(t0, t1, base + (1 if (i - start) % n < rem else 0))


#: One append: a gap before it (0 keeps it contiguous; -5e-10 overlaps
#: within the tolerance), its duration (0 is an instant) and its count.
#: Small pools of values make repeated rates, which coalesce, and
#: remainders that rotate.
appends = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.0, 0.5, 1e-10, -5e-10]),
        st.sampled_from([0.0, 0.2, 1.0, 1.0, 1.0, 2.5]),
        st.sampled_from([0, 0, 1, 5, 7, 46, 47, 93, 1000, 1001]),
    ),
    min_size=1,
    max_size=40,
)


def _assert_same_log(got: Partition, want: Partition, horizon: float):
    assert got.segments == want.segments
    assert got.end_offset == want.end_offset
    assert got.nonempty_appends == want.nonempty_appends
    for t in np.linspace(0.0, horizon + 1.0, 23).tolist():
        assert got.offset_at(t) == want.offset_at(t)
    end = want.end_offset
    for lo, hi in [(0, end), (0, end // 2), (end // 3, end), (end // 2, end)]:
        if hi > lo:
            assert got.mean_arrival_time(lo, hi) == want.mean_arrival_time(lo, hi)


class TestTopicAppend:
    @given(partitions=st.integers(1, 9), steps=appends)
    @settings(max_examples=200, deadline=None)
    def test_logs_equal_checked_appends(self, partitions, steps):
        topic = Topic("t", partitions)
        reference = [Partition(i) for i in range(partitions)]
        end = 0.0
        for gap, duration, count in steps:
            t0 = end + gap
            t1 = t0 + duration
            topic.append_uniform(t0, t1, count)
            _reference_append(reference, t0, t1, count)
            end = max(end, t1)
        for got, want in zip(topic.partitions, reference):
            _assert_same_log(got, want, end)

    @pytest.mark.parametrize(
        "t0, t1, count",
        [
            (2.0, 3.0, -1),  # negative count
            (2.5, 2.0, 10),  # ends before it starts
            (1.5, 3.0, 10),  # overlaps the previous append
        ],
    )
    def test_bad_appends_raise_and_leave_the_logs(self, t0, t1, count):
        topic = Topic("t", 4)
        topic.append_uniform(0.0, 2.0, 9)
        before = [p.segments for p in topic.partitions]
        with pytest.raises(ValueError):
            topic.append_uniform(t0, t1, count)
        assert [p.segments for p in topic.partitions] == before
        topic.append_uniform(2.0, 3.0, 3)
        assert topic.total_records() == 12


# -- Engine: one heapreplace per attempt, executor costs per job ----------


def _reference_run_job(scheduler, job, executors, start_time, rng):
    """The scheduling loop as a heappop and a heappush per attempt,
    with executor costs read per task set."""
    run = JobRun(
        job_id=job.job_id, start=start_time, finish=start_time,
        executors_used=len(executors),
    )
    ov = scheduler.overhead
    faults = scheduler.faults
    slots = []
    seq = 0
    clock = start_time + ov.batch_setup
    for ex in executors:
        for _ in range(ex.cores):
            slots.append((clock, seq, ex))
            seq += 1
    heapq.heapify(slots)
    coord = ov.coordination_cost(len(executors))
    for stage in job.stages:
        order = sorted(
            stage.tasks, key=lambda t: t.compute_cost + t.io_cost, reverse=True
        )
        for _ in range(stage.iterations):
            clock += ov.stage_setup + coord
            if not order:
                continue
            noise = scheduler.noise.draw(rng, len(order))
            barrier = finish_max = clock
            seq = len(slots)
            costs = {}
            for i, spec in enumerate(order):
                attempts = 0
                while True:
                    attempts += 1
                    free_at, _, ex = heapq.heappop(slots)
                    start = max(free_at, barrier) + ov.task_dispatch
                    startup = 0.0
                    charged = False
                    if not ex.initialized:
                        startup = ov.executor_startup
                        ex.mark_initialized()
                        charged = True
                    if ex.executor_id not in costs:
                        costs[ex.executor_id] = (ex.speed_factor, ex.io_penalty)
                    speed, io_penalty = costs[ex.executor_id]
                    duration = (
                        spec.compute_cost / speed + spec.io_cost * io_penalty
                    ) * float(noise[i]) + startup
                    may_fail = (
                        faults.enabled and faults.max_attempts > 1
                        and attempts < faults.max_attempts
                    )
                    if may_fail and faults.attempt_fails(rng):
                        waste = duration * faults.waste_fraction(rng)
                        heapq.heappush(slots, (start + waste, seq, ex))
                        seq += 1
                        run.task_failures += 1
                        continue
                    if attempts == faults.max_attempts and attempts > 1:
                        run.exhausted_retries += 1
                    finish = start + duration
                    finish_max = max(finish_max, finish)
                    heapq.heappush(slots, (finish, seq, ex))
                    seq += 1
                    run.task_runs.append(TaskRun(
                        spec=spec, executor_id=ex.executor_id, start=start,
                        finish=finish, startup_charged=charged,
                    ))
                    break
            clock = finish_max
    run.finish = clock
    return run


@st.composite
def jobs(draw):
    """A job of a few stages; task costs come from small pools so equal
    LPT keys (ties the sort must keep stable) are common."""
    stages = []
    for sid in range(draw(st.integers(1, 4))):
        tasks = [
            TaskSpec(
                task_id=tid,
                records=draw(st.integers(0, 50)),
                compute_cost=draw(st.sampled_from([0.0, 0.01, 0.25, 0.5, 1.5])),
                io_cost=draw(st.sampled_from([0.0, 0.0, 0.05, 0.4])),
            )
            for tid in range(draw(st.integers(0, 30)))
        ]
        stages.append(Stage(
            stage_id=sid, name=f"s{sid}", tasks=tasks,
            iterations=draw(st.integers(1, 4)),
        ))
    return BatchJob(job_id=0, batch_time=0.0, records=0, stages=stages)


class TestSchedulerLoop:
    @given(
        job=jobs(),
        executors=st.integers(1, 10),
        initialized=st.lists(st.booleans(), min_size=10, max_size=10),
        slowdowns=st.lists(
            st.sampled_from([1.0, 1.0, 1.5, 3.0]), min_size=10, max_size=10
        ),
        failure_prob=st.sampled_from([0.0, 0.1, 0.4, 0.9]),
        max_attempts=st.integers(1, 5),
        sigma=st.sampled_from([0.0, 0.1]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_schedule_as_pop_and_push(
        self, job, executors, initialized, slowdowns, failure_prob,
        max_attempts, sigma, seed,
    ):
        rm = ResourceManager(paper_cluster())
        rm.scale_to(executors)
        pool = rm.executors
        for ex, init, slow in zip(pool, initialized, slowdowns):
            if init:
                ex.mark_initialized()
            ex.set_slowdown(slow)
        reference_pool = copy.deepcopy(pool)
        scheduler = TaskScheduler(
            overhead=DEFAULT_OVERHEAD,
            noise=NoiseModel(sigma=sigma),
            record_tasks=True,
            faults=FaultModel(
                task_failure_prob=failure_prob, max_attempts=max_attempts
            ),
        )
        got = scheduler.run_job(job, pool, 3.0, np.random.default_rng(seed))
        want = _reference_run_job(
            scheduler, job, reference_pool, 3.0, np.random.default_rng(seed)
        )
        assert got.finish == want.finish
        assert got.task_failures == want.task_failures
        assert got.exhausted_retries == want.exhausted_retries
        assert got.task_runs == want.task_runs
        assert [ex.initialized for ex in pool] == [
            ex.initialized for ex in reference_pool
        ]

"""Property tests pinning the exact tier's fast paths to reference code.

``Topic`` keeps every partition's segments in one columnar log that
``append_uniform`` writes and the consumer reads in one pass each;
``TaskScheduler`` takes the earliest slot with one ``heapreplace`` and
resolves executor costs once per job.  Each property below rebuilds the
straightforward form — the per-partition ``Partition`` objects and
consumer the log replaced, a checked ``Partition.append`` per
partition, and a ``heappop``/``heappush`` scheduling loop — and
requires the same logs, the same batches and the same schedules, bit
for bit.
"""

import bisect
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
from repro.kafka.consumer import DirectStreamConsumer
from repro.kafka.partition import Partition, Segment
from repro.kafka.topic import Topic

# -- Kafka: the per-partition objects the topic log replaced ---------------


class _RefPartition:
    """One partition as its own object: the log before it was columnar."""

    def __init__(self, partition_id):
        self.partition_id = partition_id
        self._t0 = []
        self._t1 = []
        self._counts = []
        self._bases = []
        self._end_offset = 0
        self._last_t1 = 0.0
        self._nonempty_appends = 0

    @property
    def end_offset(self):
        return self._end_offset

    @property
    def nonempty_appends(self):
        return self._nonempty_appends

    @property
    def segments(self):
        return tuple(
            Segment(t0=a, t1=b, count=c, base_offset=o)
            for a, b, c, o in zip(self._t0, self._t1, self._counts, self._bases)
        )

    def _check(self, t0, t1, count):
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if t1 < t0:
            raise ValueError(f"segment end {t1} precedes start {t0}")
        if t0 < self._last_t1 - 1e-9:
            raise ValueError("append overlaps the previous segment")

    def _extend(self, t0, t1, count):
        if t1 > self._last_t1:
            self._last_t1 = t1
        if count == 0:
            return
        self._nonempty_appends += 1
        if self._counts:
            pt0 = self._t0[-1]
            pt1 = self._t1[-1]
            pcount = self._counts[-1]
            if t0 == pt1 and count * (pt1 - pt0) == pcount * (t1 - t0):
                self._t1[-1] = t1
                self._counts[-1] = pcount + count
                self._end_offset += count
                return
        self._t0.append(t0)
        self._t1.append(t1)
        self._counts.append(count)
        self._bases.append(self._end_offset)
        self._end_offset += count

    def offset_at(self, t):
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        i = bisect.bisect_right(self._t1, t)
        if i == len(self._t0):
            return self._end_offset
        total = self._bases[i]
        if t > self._t0[i]:
            span = self._t1[i] - self._t0[i]
            frac = (t - self._t0[i]) / span if span > 0 else 1.0
            total += int(frac * self._counts[i])
        return total

    def mean_arrival_time(self, start_offset, end_offset):
        bases, counts, t0s, t1s = self._bases, self._counts, self._t0, self._t1
        total_time = 0.0
        total_count = 0
        i = max(bisect.bisect_right(bases, start_offset) - 1, 0)
        while i < len(t0s) and bases[i] < end_offset:
            base = bases[i]
            hi = base + counts[i]
            lo = start_offset if start_offset > base else base
            if end_offset < hi:
                hi = end_offset
            if hi > lo:
                mid_frac = ((lo + hi) / 2.0 - base) / counts[i]
                total_time += (t0s[i] + mid_frac * (t1s[i] - t0s[i])) * (hi - lo)
                total_count += hi - lo
            i += 1
        return total_time / total_count


class _RefTopic:
    def __init__(self, num_partitions):
        self.partitions = [_RefPartition(i) for i in range(num_partitions)]

    def total_records(self):
        return sum(p.end_offset for p in self.partitions)

    def records_before(self, t):
        return sum(p.offset_at(t) for p in self.partitions)

    def append_uniform(self, t0, t1, count):
        partitions = self.partitions
        partitions[0]._check(t0, t1, count)
        n = len(partitions)
        base, rem = divmod(count, n)
        counts = [base] * n
        start = partitions[0].nonempty_appends
        for k in range(rem):
            counts[(start + k) % n] += 1
        for p, c in zip(partitions, counts):
            p._extend(t0, t1, c)


class _RefConsumer:
    def __init__(self, topic):
        self.topic = topic
        self._committed = [0] * len(topic.partitions)
        self.total_consumed = 0

    def lag(self):
        return sum(
            p.end_offset - self._committed[p.partition_id]
            for p in self.topic.partitions
        )

    def poll(self, batch_time):
        ranges = []
        total = 0
        for p in self.topic.partitions:
            pid = p.partition_id
            end = p.offset_at(batch_time)
            start = self._committed[pid]
            if end < start:
                raise RuntimeError("offset went backwards")
            ranges.append((pid, start, end))
            self._committed[pid] = end
            total += end - start
        self.total_consumed += total
        return batch_time, ranges, total

    def mean_arrival_time(self, batch):
        batch_time, ranges, _ = batch
        total_t = 0.0
        total_n = 0
        for pid, start, end in ranges:
            count = end - start
            if count:
                p = self.topic.partitions[pid]
                total_t += p.mean_arrival_time(start, end) * count
                total_n += count
        if total_n == 0:
            return batch_time
        return total_t / total_n


#: One step of a producer/receiver interleaving: an append after a gap
#: (0 keeps it contiguous; -5e-10 overlaps within the tolerance) of a
#: duration and count, or a poll some way behind the produced time (0:
#: at it, as the receiver polls; more: mid-segment).  Durations off the
#: integer grid make tick ends whose differences round differently, so
#: equal-looking rates may or may not coalesce; counts below the
#: partition count leave partitions empty.  Runs of appends with no
#: poll between them are the backlog a receiver stall leaves.
_log_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.sampled_from([0.0, 0.0, 0.0, 0.0, 0.5, 1e-10, -5e-10]),
            st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 1.0, 2.5]),
            st.sampled_from([0, 0, 1, 2, 3, 5, 7, 46, 47, 93, 1000, 1001]),
        ),
        st.tuples(
            st.just("poll"),
            st.sampled_from([0.0, 0.0, 0.0, 0.05, 0.35, 1.5]),
        ),
    ),
    min_size=1,
    max_size=60,
)


def _assert_same_topic(got, want, horizon):
    for p, q in zip(got.partitions, want.partitions):
        assert p.segments == q.segments
        assert p.end_offset == q.end_offset
        assert p.nonempty_appends == q.nonempty_appends
    assert got.total_records() == want.total_records()
    for t in np.linspace(0.0, horizon + 1.0, 17).tolist():
        assert sum(got.offsets_at(t)) == want.records_before(t)
        for p, q in zip(got.partitions, want.partitions):
            assert p.offset_at(t) == q.offset_at(t)
    for p, q in zip(got.partitions, want.partitions):
        end = q.end_offset
        for lo, hi in [(0, end), (end // 3, end), (end // 2, end - end // 5)]:
            if hi > lo:
                assert (
                    p.mean_arrival_time(lo, hi).hex()
                    == q.mean_arrival_time(lo, hi).hex()
                )


class TestTopicLog:
    """The columnar topic log and its consumer against the
    per-partition objects they replaced, on random interleavings of
    appends and polls."""

    @given(partitions=st.integers(1, 9), steps=_log_steps)
    @settings(max_examples=250, deadline=None)
    def test_same_segments_and_batches(self, partitions, steps):
        topic = Topic("t", partitions)
        consumer = DirectStreamConsumer(topic)
        ref = _RefTopic(partitions)
        ref_consumer = _RefConsumer(ref)
        end = 0.0
        polled = 0.0
        for step in steps:
            if step[0] == "append":
                _, gap, duration, count = step
                t0 = end + gap
                t1 = t0 + duration
                topic.append_uniform(t0, t1, count)
                ref.append_uniform(t0, t1, count)
                end = max(end, t1)
                continue
            t = max(polled, end - step[1])
            try:
                want = ref_consumer.poll(t)
            except RuntimeError:
                # An overlapping append moved a partition's offset at
                # ``t`` below what it committed: both refuse the poll.
                with pytest.raises(RuntimeError):
                    consumer.poll(t)
                return
            polled = t
            got = consumer.poll(t)
            assert got.total_records == want[2]
            assert [(r.partition_id, r.start, r.end) for r in got.ranges] == want[1]
            assert (
                consumer.mean_arrival_time(got).hex()
                == ref_consumer.mean_arrival_time(want).hex()
            )
            assert consumer.lag() == ref_consumer.lag()
            assert consumer.total_consumed == ref_consumer.total_consumed
        assert consumer.lag() == ref_consumer.lag()
        _assert_same_topic(topic, ref, end)

    @given(
        partitions=st.integers(2, 9),
        counts=st.lists(st.integers(0, 12), min_size=1, max_size=30),
        stalled=st.integers(0, 29),
    )
    @settings(max_examples=150, deadline=None)
    def test_backlogged_poll_after_a_stall(self, partitions, counts, stalled):
        """Ticks of fewer records than partitions, on a 0.1 s grid whose
        ends round, polled every tick except during a stall: the poll
        after it takes the whole backlog."""
        topic = Topic("t", partitions)
        consumer = DirectStreamConsumer(topic)
        ref = _RefTopic(partitions)
        ref_consumer = _RefConsumer(ref)
        stall = range(stalled, stalled + len(counts) // 2)
        t = 0.0
        for i, count in enumerate(counts):
            t0, t = t, t + 0.1
            topic.append_uniform(t0, t, count)
            ref.append_uniform(t0, t, count)
            if i in stall:
                continue
            got = consumer.poll(t)
            want = ref_consumer.poll(t)
            assert got.total_records == want[2]
            assert (
                consumer.mean_arrival_time(got).hex()
                == ref_consumer.mean_arrival_time(want).hex()
            )
            assert consumer.lag() == ref_consumer.lag()
        _assert_same_topic(topic, ref, t)


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

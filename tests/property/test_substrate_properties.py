"""Property-based tests for the substrate layers (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import paper_configuration_space
from repro.datagen.rates import UniformRandomRate
from repro.kafka.partition import Partition
from repro.kafka.topic import Topic
from repro.streaming.batch_queue import BatchQueue, QueuedBatch
from repro.workloads.wordcount import WordCount


class TestPartitionProperties:
    @given(
        counts=st.lists(st.integers(0, 10_000), min_size=1, max_size=30),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_offsets_monotone_and_conserved(self, counts, seed):
        p = Partition(0)
        t = 0.0
        for c in counts:
            p.append(t, t + 1.0, c)
            t += 1.0
        assert p.end_offset == sum(counts)
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0, t + 5, size=20))
        offsets = [p.offset_at(float(x)) for x in times]
        assert offsets == sorted(offsets)
        assert p.offset_at(t + 100) == sum(counts)

    @given(counts=st.lists(st.integers(1, 1000), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_mean_arrival_within_time_span(self, counts):
        p = Partition(0)
        t = 0.0
        for c in counts:
            p.append(t, t + 2.0, c)
            t += 2.0
        mean = p.mean_arrival_time(0, p.end_offset)
        assert 0.0 <= mean <= t


class TestTopicProperties:
    @given(
        partitions=st.integers(1, 16),
        appends=st.lists(st.integers(0, 5000), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_uniform_append_conserves_and_balances(self, partitions, appends):
        topic = Topic("t", partitions)
        t = 0.0
        for count in appends:
            topic.append_uniform(t, t + 1.0, count)
            t += 1.0
        assert topic.total_records() == sum(appends)
        sizes = [p.end_offset for p in topic.partitions]
        # Uniform spread: max imbalance bounded by number of appends.
        assert max(sizes) - min(sizes) <= len(appends)


class TestRateTraceProperties:
    @given(
        lo=st.floats(0, 1e5),
        width=st.floats(1, 1e5),
        seed=st.integers(0, 1000),
        t=st.floats(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_uniform_band_respected(self, lo, width, seed, t):
        trace = UniformRandomRate(lo, lo + width, hold=10.0, seed=seed)
        assert lo <= trace.rate(t) <= lo + width

    @given(
        seed=st.integers(0, 100),
        t0=st.floats(0, 100),
        span1=st.floats(0.1, 50),
        span2=st.floats(0.1, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_records_between_is_additive(self, seed, t0, span1, span2):
        trace = UniformRandomRate(1000, 2000, hold=7.0, seed=seed)
        t1, t2 = t0 + span1, t0 + span1 + span2
        whole = trace.records_between(t0, t2)
        parts = trace.records_between(t0, t1) + trace.records_between(t1, t2)
        assert abs(whole - parts) <= 2  # integer rounding only


class TestBatchQueueProperties:
    @given(
        max_length=st.integers(1, 10),
        ops=st.lists(st.booleans(), min_size=1, max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_conservation_under_random_ops(self, max_length, ops):
        wl = WordCount(partitions=2)
        rng = np.random.default_rng(0)
        q = BatchQueue(max_length=max_length)
        t = 0.0
        for enq in ops:
            t += 1.0
            if enq or not q:
                job = wl.build_job(t, 10, rng)
                q.enqueue(
                    QueuedBatch(t, 10, t, interval=1.0, cost=job)
                )
            else:
                q.dequeue(t)
            assert q.conservation_ok()
            assert len(q) <= max_length


class TestScalerProperties:
    @given(
        frac_i=st.floats(0, 1),
        frac_e=st.floats(0, 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_anywhere_in_space(self, frac_i, frac_e):
        scaler = paper_configuration_space()
        frac = np.array([frac_i, frac_e])
        phys = scaler.physical.lower + frac * scaler.physical.ranges
        scaled = scaler.scaled.lower + frac * scaler.scaled.ranges
        assert np.allclose(scaler.to_physical(scaled), phys, atol=1e-9)

    @given(frac=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_scaling_is_monotone(self, frac):
        scaler = paper_configuration_space()
        a = scaler.to_physical([1.0 + 19.0 * frac * 0.5, 10.0])
        b = scaler.to_physical([1.0 + 19.0 * frac, 10.0])
        assert a[0] <= b[0] + 1e-12

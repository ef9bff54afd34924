"""Count-only datagen fast path: segment-per-rate-span production."""

import pytest

from repro.datagen.rates import (
    ConstantRate,
    SpikeRate,
    StepRate,
    TraceRate,
    UniformRandomRate,
)
from repro.kafka.producer import RateControlledProducer
from repro.kafka.topic import Topic


def topic():
    return Topic("events", 5)


class TestConstantUntil:
    def test_constant_rate_is_constant_forever(self):
        assert ConstantRate(100.0).constant_until(3.0) == float("inf")

    def test_uniform_random_rate_holds_per_segment(self):
        tr = UniformRandomRate(10, 20, hold=10.0, seed=1)
        assert tr.constant_until(0.0) == 10.0
        assert tr.constant_until(9.99) == 10.0
        assert tr.constant_until(10.0) == 20.0

    def test_step_rate_until_next_level(self):
        tr = StepRate.of((0.0, 10.0), (30.0, 20.0))
        assert tr.constant_until(5.0) == 30.0
        assert tr.constant_until(30.0) == float("inf")

    def test_spike_rate_breaks_at_window_edges(self):
        tr = SpikeRate(ConstantRate(10.0), spikes=((20.0, 25.0, 3.0),))
        assert tr.constant_until(0.0) == 20.0
        assert tr.constant_until(20.0) == 25.0
        assert tr.constant_until(25.0) == float("inf")

    def test_trace_rate_steps_at_dt(self):
        tr = TraceRate([5.0, 6.0, 7.0], dt=2.0)
        assert tr.constant_until(1.0) == 2.0
        assert tr.constant_until(4.5) == float("inf")  # clamped tail

    def test_default_disables_fast_path(self):
        class Custom(ConstantRate):
            def constant_until(self, t):  # re-disable
                return super(ConstantRate, self).constant_until(t)

        assert Custom(5.0).constant_until(3.0) == 3.0


class TestCountOnlyProduction:
    def test_constant_rate_totals_match_per_tick(self):
        fast = RateControlledProducer(topic(), ConstantRate(100.0),
                                      count_only=True)
        slow = RateControlledProducer(topic(), ConstantRate(100.0))
        assert fast.produce_until(120.0) == slow.produce_until(120.0) == 12000

    def test_constant_rate_uses_constant_segments(self):
        fast_topic = topic()
        slow_topic = topic()
        RateControlledProducer(fast_topic, ConstantRate(100.0),
                               count_only=True).produce_until(120.0)
        RateControlledProducer(slow_topic, ConstantRate(100.0)
                               ).produce_until(120.0)
        fast_segments = sum(p.segment_count for p in fast_topic.partitions)
        slow_segments = sum(p.segment_count for p in slow_topic.partitions)
        assert fast_segments == 5  # one span, one segment per partition
        # Per-tick production also coalesces (constant rate), so the
        # fast path's win here is fewer append calls, not fewer segments.
        assert slow_segments == 5

    def test_uniform_band_totals_close_to_per_tick(self):
        trace = UniformRandomRate(7_000, 13_000, hold=10.0, seed=3)
        fast = RateControlledProducer(topic(), trace, count_only=True)
        slow = RateControlledProducer(topic(), trace)
        nf = fast.produce_until(300.0)
        ns = slow.produce_until(300.0)
        # One rounding per 10 s span vs one per 1 s tick: totals agree
        # to within one record per tick.
        assert nf == pytest.approx(ns, abs=300)
        assert nf > 0.9 * 7_000 * 300 / 7  # sanity: same order of magnitude

    def test_count_only_is_deterministic(self):
        trace = UniformRandomRate(1_000, 2_000, hold=10.0, seed=9)
        a = RateControlledProducer(topic(), trace, count_only=True)
        b = RateControlledProducer(topic(), trace, count_only=True)
        assert a.produce_until(200.0) == b.produce_until(200.0)

    def test_rate_cap_applies_per_span(self):
        fast = RateControlledProducer(topic(), ConstantRate(100.0),
                                      count_only=True)
        fast.set_rate_cap(50.0)
        produced = fast.produce_until(10.0)
        assert produced == 500
        assert fast.total_throttled == 500

    def test_incremental_produce_until_advances_spans(self):
        trace = StepRate.of((0.0, 10.0), (5.0, 20.0))
        fast = RateControlledProducer(topic(), trace, count_only=True)
        assert fast.produce_until(5.0) == 50
        assert fast.produce_until(10.0) == 100
        assert fast.produced_until == 10.0

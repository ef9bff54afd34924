"""Unit tests for the rate-controlled producer and direct-stream consumer."""

import pytest

from repro.datagen.rates import ConstantRate, StepRate
from repro.kafka.consumer import DirectStreamConsumer, OffsetRange
from repro.kafka.producer import RateControlledProducer
from repro.kafka.topic import Topic


@pytest.fixture
def topic():
    return Topic("events", 4)


class TestProducer:
    def test_constant_rate_produces_expected_counts(self, topic):
        p = RateControlledProducer(topic, ConstantRate(1000.0))
        produced = p.produce_until(10.0)
        assert produced == 10_000
        assert topic.total_records() == 10_000

    def test_produce_is_incremental(self, topic):
        p = RateControlledProducer(topic, ConstantRate(100.0))
        p.produce_until(5.0)
        p.produce_until(10.0)
        assert p.total_produced == 1000
        assert p.produced_until == 10.0

    def test_time_going_backwards_rejected(self, topic):
        p = RateControlledProducer(topic, ConstantRate(100.0))
        p.produce_until(5.0)
        with pytest.raises(ValueError):
            p.produce_until(4.0)

    def test_rate_cap_throttles(self, topic):
        p = RateControlledProducer(topic, ConstantRate(1000.0))
        p.set_rate_cap(400.0)
        p.produce_until(10.0)
        assert p.total_produced == 4000
        assert p.total_throttled == 6000

    def test_rate_cap_can_be_lifted(self, topic):
        p = RateControlledProducer(topic, ConstantRate(1000.0))
        p.set_rate_cap(100.0)
        p.produce_until(1.0)
        p.set_rate_cap(None)
        p.produce_until(2.0)
        assert p.total_produced == 100 + 1000

    def test_step_rate_respected(self, topic):
        trace = StepRate.of((0.0, 100.0), (5.0, 200.0))
        p = RateControlledProducer(topic, trace)
        p.produce_until(10.0)
        assert p.total_produced == 5 * 100 + 5 * 200


class TestConsumer:
    def test_poll_consumes_exactly_once(self, topic):
        p = RateControlledProducer(topic, ConstantRate(1000.0))
        c = DirectStreamConsumer(topic)
        p.produce_until(2.0)
        b1 = c.poll(2.0)
        b2 = c.poll(2.0)
        assert b1.total_records == 2000
        assert b2.total_records == 0

    def test_lag_reflects_unconsumed(self, topic):
        p = RateControlledProducer(topic, ConstantRate(100.0))
        c = DirectStreamConsumer(topic)
        p.produce_until(10.0)
        assert c.lag() == 1000
        c.poll(10.0)
        assert c.lag() == 0

    def test_mean_arrival_time_mid_interval(self, topic):
        p = RateControlledProducer(topic, ConstantRate(100.0))
        c = DirectStreamConsumer(topic)
        p.produce_until(10.0)
        batch = c.poll(10.0)
        # Uniform arrivals over [0, 10): mean 5.0.
        assert c.mean_arrival_time(batch) == pytest.approx(5.0, abs=0.2)

    def test_empty_batch_mean_arrival_falls_back(self, topic):
        c = DirectStreamConsumer(topic)
        batch = c.poll(3.0)
        assert batch.total_records == 0
        assert c.mean_arrival_time(batch) == 3.0

    def test_offset_range_validation(self):
        with pytest.raises(ValueError):
            OffsetRange(partition_id=0, start=10, end=5)
        assert OffsetRange(partition_id=0, start=5, end=10).count == 5

    def test_total_consumed_accumulates(self, topic):
        p = RateControlledProducer(topic, ConstantRate(100.0))
        c = DirectStreamConsumer(topic)
        p.produce_until(4.0)
        c.poll(2.0)
        c.poll(4.0)
        assert c.total_consumed == 400

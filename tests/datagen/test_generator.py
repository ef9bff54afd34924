"""Unit tests for the external data generator."""

import pytest

from repro.datagen.generator import DataGenerator
from repro.datagen.rates import ConstantRate
from repro.kafka.topic import Topic


@pytest.fixture
def topic():
    return Topic("events", 4)


class TestDataGenerator:
    def test_advance_produces_records(self, topic):
        g = DataGenerator(topic, ConstantRate(100.0), payload_kind="text")
        assert g.advance_to(10.0) == 1000

    def test_unknown_payload_kind_rejected(self, topic):
        with pytest.raises(ValueError):
            DataGenerator(topic, ConstantRate(1.0), payload_kind="bogus")

    @pytest.mark.parametrize("kind,check", [
        ("text", lambda p: isinstance(p, str)),
        ("nginx_logs", lambda p: isinstance(p, str)),
        ("labeled_points", lambda p: p.label in (0.0, 1.0)),
        ("regression_points", lambda p: isinstance(p.label, float)),
    ])
    def test_sample_payloads_by_kind(self, topic, kind, check):
        g = DataGenerator(topic, ConstantRate(1.0), payload_kind=kind)
        payloads = g.sample_payloads(20)
        assert len(payloads) == 20
        assert all(check(p) for p in payloads)

    def test_rate_cap_passthrough(self, topic):
        g = DataGenerator(topic, ConstantRate(1000.0), payload_kind="text")
        g.set_rate_cap(100.0)
        g.advance_to(5.0)
        assert g.producer.total_throttled == 4500

"""Unit tests for the receiver and the streaming listener."""

import json

import pytest

from repro.datagen.generator import DataGenerator
from repro.datagen.rates import ConstantRate
from repro.kafka.topic import Topic
from repro.streaming.listener import StreamingListener
from repro.streaming.metrics import BatchInfo
from repro.streaming.receiver import Receiver


def make_receiver(rate=1000.0):
    topic = Topic("events", 4)
    gen = DataGenerator(topic, ConstantRate(rate), payload_kind="text")
    return Receiver(gen)


def binfo(idx, bt=10.0):
    return BatchInfo(
        batch_index=idx,
        batch_time=bt,
        interval=5.0,
        records=100,
        num_executors=4,
        mean_arrival_time=bt - 2.5,
        processing_start=bt,
        processing_end=bt + 3.0,
    )


class TestReceiver:
    def test_close_batch_counts_interval_arrivals(self):
        r = make_receiver(rate=1000.0)
        b1 = r.close_batch(5.0)
        b2 = r.close_batch(10.0)
        assert b1.records == 5000
        assert b2.records == 5000

    def test_mean_arrival_is_mid_interval(self):
        r = make_receiver(rate=1000.0)
        b = r.close_batch(10.0)
        assert b.mean_arrival_time == pytest.approx(5.0, abs=0.2)

    def test_backlog_zero_after_poll(self):
        r = make_receiver()
        r.close_batch(5.0)
        assert r.backlog == 0

    def test_boundaries_must_advance(self):
        r = make_receiver()
        r.close_batch(5.0)
        with pytest.raises(ValueError):
            r.close_batch(4.0)

    def test_observed_rate_matches_trace(self):
        r = make_receiver(rate=2000.0)
        r.close_batch(20.0)
        assert r.observed_rate(window=10.0) == pytest.approx(2000.0, rel=0.05)


class TestStreamingListener:
    def test_subscribers_receive_batches(self):
        listener = StreamingListener()
        seen = []
        listener.subscribe(seen.append)
        listener.on_batch_completed(binfo(0))
        assert len(seen) == 1
        assert seen[0].batch_index == 0

    def test_unsubscribe(self):
        listener = StreamingListener()
        seen = []
        listener.subscribe(seen.append)
        listener.unsubscribe(seen.append)
        listener.on_batch_completed(binfo(0))
        assert not seen

    def test_unsubscribe_never_registered_is_noop(self):
        listener = StreamingListener()
        listener.unsubscribe(lambda info: None)  # must not raise

    def test_unsubscribe_twice_is_idempotent(self):
        listener = StreamingListener()
        seen = []
        listener.subscribe(seen.append)
        listener.unsubscribe(seen.append)
        listener.unsubscribe(seen.append)
        listener.on_batch_completed(binfo(0))
        assert not seen

    def test_callback_may_unsubscribe_itself_mid_dispatch(self):
        listener = StreamingListener()
        seen = []

        def once(info):
            seen.append(info)
            listener.unsubscribe(once)

        listener.subscribe(once)
        listener.subscribe(seen.append)
        listener.on_batch_completed(binfo(0))
        # Both callbacks of the snapshot ran; `once` is now gone.
        assert len(seen) == 2
        listener.on_batch_completed(binfo(1, bt=15.0))
        assert len(seen) == 3

    def test_latest_status_none_before_batches(self):
        assert StreamingListener().metrics.last is None

    def test_status_json_roundtrip(self):
        listener = StreamingListener()
        listener.on_batch_completed(binfo(0))
        listener.on_batch_completed(binfo(1, bt=15.0))
        report = json.dumps([b.to_dict() for b in listener.metrics.recent(2)])
        payload = json.loads(report)
        assert len(listener.metrics) == 2
        assert len(payload) == 2
        assert payload[-1]["batchIndex"] == 1

    def test_status_json_is_valid_json(self):
        listener = StreamingListener()
        listener.on_batch_completed(binfo(0))
        json.loads(json.dumps(listener.metrics.last.to_dict(), allow_nan=False))

    def test_status_json_validates_last_n(self):
        with pytest.raises(ValueError):
            StreamingListener().metrics.recent(-1)

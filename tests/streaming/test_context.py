"""Integration-level tests for the streaming context."""

import pytest

from repro.streaming.context import StreamingConfig

from ..conftest import make_context


class TestStreamingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingConfig(batch_interval=0.0, num_executors=1)
        with pytest.raises(ValueError):
            StreamingConfig(batch_interval=1.0, num_executors=0)


class TestAdvance:
    def test_stable_config_processes_every_batch(self):
        ctx = make_context(rate=50_000, interval=5.0, executors=12)
        infos = ctx.advance_batches(10)
        assert len(infos) >= 9  # last may still be in flight
        assert ctx.listener.metrics.unstable_fraction() < 0.2

    def test_batch_records_match_rate(self):
        ctx = make_context(rate=10_000, interval=4.0, executors=12)
        infos = ctx.advance_batches(5)
        assert all(abs(b.records - 40_000) < 100 for b in infos)

    def test_unstable_config_accumulates_schedule_delay(self):
        ctx = make_context(rate=150_000, interval=1.0, executors=4)
        ctx.advance_batches(20)
        recent = ctx.listener.metrics.recent(5)
        assert all(b.scheduling_delay > 1.0 for b in recent)
        assert len(ctx.queue) > 0

    def test_advance_until(self):
        ctx = make_context(interval=5.0)
        ctx.advance_until(42.0)
        assert ctx.time == 40.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            make_context().advance_batches(-1)

    def test_batch_indices_strictly_increase(self):
        ctx = make_context()
        infos = ctx.advance_batches(8)
        indices = [b.batch_index for b in infos]
        assert indices == sorted(set(indices))


class TestRuntimeReconfiguration:
    def test_interval_change_applies_to_next_batch(self):
        ctx = make_context(interval=5.0)
        ctx.advance_batches(2)
        ctx.change_configuration(batch_interval=2.0)
        ctx.advance_batches(3)
        batches = ctx.listener.metrics.batches
        assert batches[0].interval == 5.0
        assert batches[-1].interval == 2.0

    def test_executor_change_rescales_pool(self):
        ctx = make_context(executors=4)
        ctx.change_configuration(num_executors=10)
        assert ctx.num_executors == 10
        ctx.advance_batches(3)
        assert ctx.listener.metrics.last.num_executors == 10

    def test_first_batch_after_reconfig_flagged(self):
        ctx = make_context()
        ctx.advance_batches(2)
        ctx.change_configuration(num_executors=8)
        infos = ctx.advance_batches(4)
        flags = [b.first_after_reconfig for b in infos]
        assert sum(flags) == 1
        assert flags[0]

    def test_noop_change_does_not_count(self):
        ctx = make_context(interval=5.0, executors=10)
        ctx.change_configuration(batch_interval=5.0, num_executors=10)
        assert ctx.config_changes == 0

    def test_reconfig_counts(self):
        ctx = make_context()
        ctx.change_configuration(batch_interval=3.0)
        ctx.change_configuration(num_executors=6)
        assert ctx.config_changes == 2

    def test_invalid_values_rejected(self):
        ctx = make_context()
        with pytest.raises(ValueError):
            ctx.change_configuration(batch_interval=0.0)
        with pytest.raises(ValueError):
            ctx.change_configuration(num_executors=0)

    def test_more_executors_speed_up_processing(self):
        slow = make_context(rate=100_000, interval=5.0, executors=4, seed=1)
        fast = make_context(rate=100_000, interval=5.0, executors=16, seed=1)
        slow_infos = slow.advance_batches(8)
        fast_infos = fast.advance_batches(8)
        slow_proc = sum(b.processing_time for b in slow_infos) / len(slow_infos)
        fast_proc = sum(b.processing_time for b in fast_infos) / len(fast_infos)
        assert fast_proc < slow_proc


class TestEndToEndDelayAccounting:
    def test_delay_exceeds_half_interval(self):
        # Records wait on average half an interval before the batch closes.
        ctx = make_context(rate=10_000, interval=6.0, executors=12)
        infos = ctx.advance_batches(6)
        for b in infos:
            assert b.end_to_end_delay >= 0.9 * (3.0 + b.processing_time) - 0.5

    def test_stability_query(self):
        ctx = make_context(rate=10_000, interval=8.0, executors=14)
        ctx.advance_batches(6)
        assert all(b.stable for b in ctx.listener.metrics.recent(5))

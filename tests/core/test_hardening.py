"""Unit tests for the chaos-hardened measurement machinery:
MAD outlier rejection, degraded-mode windows, and the rate-monitor
reset cooldown."""

import pytest

from repro.core.metrics_collector import MetricsCollector
from repro.core.rate_monitor import RateMonitor
from repro.streaming.metrics import BatchInfo


def in_cooldown(monitor):
    """Whether the post-reset hysteresis is still suppressing triggers."""
    return monitor.checkpoint()["cooldownLeft"] > 0


def binfo(idx, proc=3.0, bt=10.0, interval=5.0, first=False):
    return BatchInfo(
        batch_index=idx,
        batch_time=bt,
        interval=interval,
        records=100,
        num_executors=4,
        mean_arrival_time=bt - interval / 2,
        processing_start=bt,
        processing_end=bt + proc,
        first_after_reconfig=first,
    )


class TestMadRejection:
    def test_crash_inflated_batch_rejected_and_window_refilled(self):
        c = MetricsCollector(window=3, mad_threshold=3.5)
        c.start_measurement()
        assert c.offer(binfo(0, proc=3.0)) is None
        assert c.offer(binfo(1, proc=3.1)) is None
        # Executor crash mid-window: one wildly inflated batch.  The
        # full window is not summarized — the outlier is dropped and the
        # collector asks for a replacement batch instead.
        assert c.offer(binfo(2, proc=40.0)) is None
        assert c.outliers_rejected == 1
        m = c.offer(binfo(3, proc=2.9))
        assert m is not None
        assert m.mean_processing_time == pytest.approx(3.0, abs=0.2)
        assert m.outliers_rejected == 1
        assert not m.tainted

    def test_persistent_corruption_taints_measurement(self):
        c = MetricsCollector(window=3, mad_threshold=3.5, max_retries=1)
        c.start_measurement()
        c.offer(binfo(0, proc=3.0))
        c.offer(binfo(1, proc=3.1))
        assert c.offer(binfo(2, proc=40.0)) is None  # retry budget spent
        m = c.offer(binfo(3, proc=45.0))  # corruption persists
        assert m is not None
        assert m.tainted
        assert c.last_tainted

    def test_one_sided_fast_batches_are_not_outliers(self):
        c = MetricsCollector(window=4, mad_threshold=3.5)
        c.start_measurement()
        for i, proc in enumerate((3.0, 3.1, 2.9, 0.01)):
            m = c.offer(binfo(i, proc=proc))
        # An abnormally *fast* batch is kept: faults only inflate.
        assert m is not None
        assert c.outliers_rejected == 0

    def test_detection_only_mode_keeps_outliers(self):
        c = MetricsCollector(
            window=3, mad_threshold=3.5, reject_outliers=False
        )
        c.start_measurement()
        c.offer(binfo(0, proc=3.0))
        c.offer(binfo(1, proc=3.0))
        m = c.offer(binfo(2, proc=40.0))
        assert m is not None
        assert m.tainted
        # The outlier stayed in the average (paper-exact measurement).
        assert m.mean_processing_time > 10.0
        assert c.outliers_rejected == 0

    def test_disabled_by_default(self):
        c = MetricsCollector(window=3)
        c.start_measurement()
        c.offer(binfo(0, proc=3.0))
        c.offer(binfo(1, proc=3.0))
        m = c.offer(binfo(2, proc=40.0))
        assert m is not None
        assert not m.tainted
        assert m.outliers_rejected == 0

    def test_start_measurement_resets_retry_budget_and_taint(self):
        c = MetricsCollector(window=3, mad_threshold=3.5, max_retries=1)
        c.start_measurement()
        c.offer(binfo(0, proc=3.0))
        c.offer(binfo(1, proc=3.0))
        assert c.offer(binfo(2, proc=40.0)) is None  # retry budget spent
        m = c.offer(binfo(3, proc=41.0))
        assert m is not None and m.tainted
        c.start_measurement()
        assert not c.last_tainted
        c.offer(binfo(4, proc=3.0))
        c.offer(binfo(5, proc=3.0))
        # Fresh retry budget: the outlier is rejected again, not tainted.
        assert c.offer(binfo(6, proc=40.0)) is None
        assert not c.last_tainted

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsCollector(mad_threshold=0.0)
        with pytest.raises(ValueError):
            MetricsCollector(max_retries=-1)
        with pytest.raises(ValueError):
            MetricsCollector(degraded_extra=-1)


class TestDegradedMode:
    def test_window_widens_while_faults_active(self):
        c = MetricsCollector(window=3, degraded_extra=2)
        assert c.window == 3
        c.set_degraded(True)
        assert c.window == 5
        c.set_degraded(False)
        assert c.window == 3

    def test_degraded_window_needs_more_batches(self):
        c = MetricsCollector(window=2, degraded_extra=2)
        c.set_degraded(True)
        c.start_measurement()
        for i in range(3):
            assert c.offer(binfo(i)) is None
        assert c.offer(binfo(3)) is not None

    def test_clearing_degraded_mid_window_flushes_buffer(self):
        # Regression: the window shrank on set_degraded(False) while the
        # buffer kept the widened count, so the next offer summarized an
        # oversized window that mixed degraded-era batches into the
        # clean measurement.
        c = MetricsCollector(window=3, degraded_extra=3)
        c.set_degraded(True)
        c.start_measurement()
        for i in range(4):  # widened window (6) not yet full
            assert c.offer(binfo(i, proc=50.0)) is None
        c.set_degraded(False)
        assert c.pending == 0  # degraded-era batches flushed
        for i in range(4, 6):
            assert c.offer(binfo(i, proc=3.0)) is None
        m = c.offer(binfo(6, proc=3.0))
        assert m is not None
        # Exactly the configured window, only post-fault batches.
        assert m.batches_used == 3
        assert m.mean_processing_time == pytest.approx(3.0)

    def test_entering_degraded_keeps_buffer(self):
        # Widening mid-window is safe — the buffered clean batches stay
        # and the window simply asks for more.
        c = MetricsCollector(window=2, degraded_extra=2)
        c.start_measurement()
        assert c.offer(binfo(0, proc=3.0)) is None
        c.set_degraded(True)
        assert c.pending == 1
        assert c.offer(binfo(1, proc=3.0)) is None
        assert c.offer(binfo(2, proc=3.0)) is None
        m = c.offer(binfo(3, proc=3.0))  # widened window (4) fills
        assert m is not None
        assert m.batches_used == 4


class TestRateMonitorCooldown:
    def _surge(self, m):
        for _ in range(3):
            m.observe(1_000.0)
        for _ in range(3):
            m.observe(50_000.0)

    def test_post_reset_spike_cannot_retrigger_during_cooldown(self):
        m = RateMonitor(threshold=0.25, window=6, min_samples=2, cooldown=8)
        self._surge(m)
        assert m.need_reset()
        m.acknowledge_reset()
        assert in_cooldown(m)
        # The post-fault spike is still in the incoming rate stream; the
        # cooldown must absorb it instead of resetting every round.
        self._surge(m)
        assert not m.need_reset()
        assert m.resets_triggered == 1

    def test_retriggers_after_cooldown_expires(self):
        m = RateMonitor(threshold=0.25, window=6, min_samples=2, cooldown=4)
        self._surge(m)
        m.acknowledge_reset()
        self._surge(m)  # 6 observations: cooldown of 4 fully elapsed
        assert not in_cooldown(m)
        assert m.need_reset()

    def test_zero_cooldown_is_legacy_behavior(self):
        m = RateMonitor(threshold=0.25, window=6, min_samples=2, cooldown=0)
        self._surge(m)
        m.acknowledge_reset()
        self._surge(m)
        assert m.need_reset()

    def test_negative_cooldown_rejected(self):
        with pytest.raises(ValueError):
            RateMonitor(cooldown=-1)


class TestRateMonitorCooldownSemantics:
    """Pin the intended cooldown accounting: the countdown is measured
    in *observations*, full stop — it ticks down on every ``observe``,
    including the ones made before the refilled window has
    ``min_samples`` rates again."""

    def test_cooldown_ticks_during_observe_before_min_samples(self):
        m = RateMonitor(threshold=0.25, window=6, min_samples=4, cooldown=3)
        for _ in range(3):
            m.observe(1_000.0)
        for _ in range(3):
            m.observe(50_000.0)
        assert m.need_reset()
        m.acknowledge_reset()
        assert in_cooldown(m)
        # Two observations: fewer than min_samples, but each one still
        # burns a cooldown tick.
        m.observe(1_000.0)
        m.observe(1_000.0)
        assert in_cooldown(m)  # one tick left
        m.observe(1_000.0)
        assert not in_cooldown(m)  # expired at 3 observations...
        # ...yet need_reset stays False: only 3 < min_samples rates in
        # the refilled window.  The two gates are independent.
        assert not m.need_reset()

    def test_cooldown_expiry_and_min_samples_reached_together(self):
        m = RateMonitor(threshold=0.25, window=6, min_samples=4, cooldown=4)
        for _ in range(3):
            m.observe(1_000.0)
        for _ in range(3):
            m.observe(50_000.0)
        m.acknowledge_reset()
        # Four steady post-reset observations: cooldown expires exactly
        # when min_samples is reached, and a steady stream must not
        # re-trigger.
        for _ in range(4):
            m.observe(1_000.0)
        assert not in_cooldown(m)
        assert not m.need_reset()
        assert m.resets_triggered == 1

    def test_reset_storm_is_bounded_by_cooldown(self):
        # The docstring scenario: a persistent post-fault spike pattern
        # in the rate stream.  Without hysteresis every round would
        # trigger; with cooldown=8 the monitor fires at most once per
        # 8 + min_samples observations.
        m = RateMonitor(threshold=0.25, window=6, min_samples=2, cooldown=8)
        resets = 0
        for round_ in range(40):
            m.observe(1_000.0 if round_ % 2 else 60_000.0)
            if m.need_reset():
                m.acknowledge_reset()
                resets += 1
        assert m.resets_triggered == resets
        # The window refills *during* cooldown (observe still appends),
        # so the firing cycle is cooldown + 1 = 9 observations: at most
        # 5 firings in 40 rounds.
        assert 1 <= resets <= 5

    def test_zero_cooldown_storms(self):
        # Contrast case: cooldown=0 (legacy behavior) re-triggers nearly
        # every round on the same stream — the storm the hysteresis is
        # there to prevent.
        m = RateMonitor(threshold=0.25, window=6, min_samples=2, cooldown=0)
        resets = 0
        for round_ in range(40):
            m.observe(1_000.0 if round_ % 2 else 60_000.0)
            if m.need_reset():
                m.acknowledge_reset()
                resets += 1
        assert resets > 10

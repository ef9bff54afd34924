"""Anomaly detectors: delay spikes, rate shifts, SPSA convergence."""

import pytest

from repro.obs import (
    AuditTrail,
    CusumDetector,
    EwmaMadDetector,
    SpsaWatchdog,
)

from .test_audit import make_decision


class TestEwmaMad:
    def test_quiet_signal_never_fires(self):
        det = EwmaMadDetector()
        for i in range(50):
            assert det.observe(float(i), 10.0 + 0.1 * (i % 3)) is None
        assert det.events == []

    def test_spike_fires_and_is_attributed(self):
        det = EwmaMadDetector()
        for i in range(20):
            det.observe(float(i), 10.0 + 0.2 * (i % 4))
        event = det.observe(20.0, 60.0)
        assert event is not None
        assert event.kind == "delay_spike"
        assert event.time == 20.0
        assert event.score > 5.0
        assert "robust sigmas" in event.detail

    def test_one_outlier_does_not_mask_the_next(self):
        # The point of MAD over std: a first spike must not inflate the
        # scale so much that an identical second spike goes unseen.
        det = EwmaMadDetector()
        for i in range(20):
            det.observe(float(i), 10.0)
        assert det.observe(20.0, 60.0) is not None
        for i in range(21, 26):
            det.observe(float(i), 10.0)
        assert det.observe(26.0, 60.0) is not None

    def test_warmup_suppresses_early_firings(self):
        det = EwmaMadDetector()
        assert det.observe(0.0, 10.0) is None
        assert det.observe(1.0, 500.0) is None  # within warmup
        assert det.events == []


class TextbookCusum(CusumDetector):
    """CUSUM at the textbook decision interval h = 4."""

    H = 4.0


class ShortWarmupCusum(TextbookCusum):
    WARMUP = 4


class TestCusum:
    def test_level_shift_fires_within_a_few_samples(self):
        det = TextbookCusum()
        for i in range(20):
            det.observe(float(i), 100.0 + (i % 2))  # ~flat baseline
        fired_at = None
        for i in range(20, 30):
            event = det.observe(float(i), 130.0)
            if event is not None:
                fired_at = i
                break
        assert fired_at is not None and fired_at <= 23
        assert det.events[0].kind == "rate_shift"
        assert "upward" in det.events[0].detail

    def test_downward_shift_reported_with_direction(self):
        det = TextbookCusum()
        for i in range(20):
            det.observe(float(i), 100.0 + (i % 2))
        for i in range(20, 30):
            if det.observe(float(i), 60.0):
                break
        assert det.events and "downward" in det.events[0].detail

    def test_rebaselines_after_firing(self):
        det = TextbookCusum()
        for i in range(20):
            det.observe(float(i), 100.0 + (i % 2))
        for i in range(20, 40):
            det.observe(float(i), 150.0 + (i % 2))
        assert len(det.events) == 1
        # Now settled at 150: a further shift fires against the NEW level.
        for i in range(40, 60):
            det.observe(float(i), 200.0 + (i % 2))
        assert len(det.events) == 2
        assert det.events[1].value == pytest.approx(200.0, abs=1.5)

    def test_transient_burst_does_not_poison_the_reference(self):
        # A fault-recovery burst (a handful of extreme samples) must not
        # blind the detector to a later genuine shift — the robust refit
        # plus quiescent re-centering keeps the reference on the settled
        # regime.
        det = CusumDetector()
        for i in range(30):
            det.observe(float(i), 100.0 + (i % 2))
        for i in range(30, 34):
            det.observe(float(i), 500.0)  # burst; may fire, that's fine
        for i in range(34, 60):
            det.observe(float(i), 100.0 + (i % 2))  # settles back
        before = len(det.events)
        for i in range(60, 70):
            if det.observe(float(i), 140.0):
                break
        assert len(det.events) > before, "post-burst shift went undetected"

    def test_sigma_floor_prevents_infinite_scores(self):
        det = ShortWarmupCusum()
        for i in range(4):
            det.observe(float(i), 100.0)  # perfectly flat warmup
        event = det.observe(4.0, 101.0)
        assert event is None  # 1% move must not fire off a zero sigma


class TestSpsaWatchdog:
    def _trail(self, gradients, step_clipped=None):
        trail = AuditTrail()
        for i, g in enumerate(gradients):
            clipped = (
                step_clipped[i] if step_clipped is not None else (False, False)
            )
            trail.record_decision(make_decision(
                round_index=i + 1, sim_time=30.0 * (i + 1),
                gradient=g, step_clipped=clipped,
            ))
        return trail

    def test_healthy_descent_stays_quiet(self):
        trail = self._trail([(-2.0, 1.0)] * 10)
        report = SpsaWatchdog().scan(trail)
        assert not report.events
        assert report.sign_flip_fraction == 0.0

    def test_sign_thrash_fires(self):
        gradients = [
            ((-2.0, 1.0) if i % 2 == 0 else (2.0, 1.0)) for i in range(10)
        ]
        report = SpsaWatchdog().scan(
            self._trail(gradients)
        )
        assert report.events
        assert report.events[0].kind == "gradient_thrash"
        assert report.sign_flip_fraction == 1.0

    def test_step_clip_saturation_fires(self):
        report = SpsaWatchdog().scan(
            self._trail([(-2.0, 1.0)] * 10,
                        step_clipped=[(True, False)] * 10)
        )
        assert any(e.kind == "clip_saturation" for e in report.events)
        assert report.step_clip_fraction == 1.0

    def test_short_trail_is_not_judged(self):
        report = SpsaWatchdog().scan(self._trail([(-2.0, 1.0)] * 3))
        assert not report.events
        assert report.rounds_scanned == 3

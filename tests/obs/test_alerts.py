"""Multi-window burn-rate alerting: firing, resolving, the alert log."""

import pytest

from repro.obs import BurnRateAlerter
from repro.obs.alerts import BurnRatePolicy, unstable_batch

from .helpers import make_batch


def stability_policy(**overrides):
    base = dict(
        name="stability-burn",
        target=0.90,
        classifier=unstable_batch,
        fast_window=60.0,
        slow_window=600.0,
        fast_burn=6.0,
        slow_burn=3.0,
    )
    base.update(overrides)
    return BurnRatePolicy(**base)


class TestPolicy:
    def test_fast_window_must_not_exceed_slow(self):
        with pytest.raises(ValueError, match="must not exceed"):
            stability_policy(fast_window=600.0, slow_window=60.0)

    def test_budget_is_one_minus_target(self):
        assert stability_policy(target=0.9).budget == pytest.approx(0.1)

    def test_duplicate_policy_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BurnRateAlerter([stability_policy(), stability_policy()])


class TestFiring:
    def test_needs_both_windows_over_threshold(self):
        alerter = BurnRateAlerter([stability_policy()])
        # One bad batch: the fast window burns hot (1/1 / 0.1 = 10x) but
        # a long good history keeps the slow window cold -> no page.
        for i in range(60):
            alerter.observe_batch(make_batch(i, processing_time=5.0))
        fired = alerter.observe_batch(make_batch(60, processing_time=15.0))
        assert fired == []
        assert alerter.log == []

    def test_sustained_badness_fires_once_then_resolves(self):
        alerter = BurnRateAlerter([stability_policy()])
        fired_at = []
        for i in range(12):
            new = alerter.observe_batch(make_batch(i, processing_time=15.0))
            fired_at.extend(a.fired_at for a in new)
        # One alert, fired at the first batch (both windows 10x > 6x/3x),
        # and re-crossings while active add nothing to the log.
        assert len(alerter.log) == 1
        assert len(fired_at) == 1
        assert alerter.log[0].active

        # Recovery: enough good batches drain the fast window.
        last = None
        for i in range(12, 24):
            last = make_batch(i, processing_time=5.0)
            alerter.observe_batch(last)
        alert = alerter.log[0]
        assert not alert.active
        assert alert.resolved_at is not None
        assert alert.resolved_at <= last.processing_end

    def test_finish_resolves_still_active_alerts(self):
        alerter = BurnRateAlerter([stability_policy()])
        for i in range(12):
            alerter.observe_batch(make_batch(i, processing_time=15.0))
        assert any(a.active for a in alerter.log)
        alerter.finish(999.0)
        assert not any(a.active for a in alerter.log)
        assert alerter.log[0].resolved_at == 999.0


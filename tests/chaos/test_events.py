"""Unit tests for the fault-schedule DSL (triggers, events, schedules)."""

import pytest

from repro.chaos import AtTime, FaultEvent, FaultSchedule, Periodic
from repro.chaos.events import RateAbove
from repro.chaos.injectors import DataSkewBurst


def skew():
    return DataSkewBurst(multiplier=2.0)


class TestAtTime:
    def test_fires_once_inside_window(self):
        t = AtTime(120.0)
        assert t.fire_times(110.0, 130.0, 0.0, None) == (120.0,)

    def test_boundary_inclusion_is_half_open(self):
        t = AtTime(120.0)
        # (t0, t1]: firing exactly at t1 counts, exactly at t0 does not.
        assert t.fire_times(110.0, 120.0, 0.0, None) == (120.0,)
        assert t.fire_times(120.0, 130.0, 0.0, None) == ()

    def test_never_refires(self):
        t = AtTime(120.0)
        assert t.fire_times(110.0, 130.0, 0.0, last_fired=120.0) == ()

    def test_fire_at_time_zero(self):
        t = AtTime(0.0)
        assert t.fire_times(float("-inf"), 10.0, 0.0, None) == (0.0,)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            AtTime(-1.0)


class TestPeriodic:
    def test_every_period_in_window(self):
        t = Periodic(period=10.0, start=0.0)
        assert t.fire_times(0.0, 30.0, 0.0, None) == (10.0, 20.0, 30.0)

    def test_start_offset(self):
        t = Periodic(period=10.0, start=25.0)
        assert t.fire_times(0.0, 40.0, 0.0, None) == (25.0, 35.0)

    def test_end_bound(self):
        t = Periodic(period=10.0, start=0.0, end=25.0)
        assert t.fire_times(0.0, 100.0, 0.0, None) == (10.0, 20.0)

    def test_no_double_fire_across_windows(self):
        t = Periodic(period=10.0)
        first = t.fire_times(float("-inf"), 15.0, 0.0, None)
        second = t.fire_times(15.0, 30.0, 0.0, last_fired=first[-1])
        assert first == (0.0, 10.0)
        assert second == (20.0, 30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Periodic(period=0.0)
        with pytest.raises(ValueError):
            Periodic(period=5.0, start=10.0, end=10.0)


class TestRateAbove:
    def test_fires_on_high_rate(self):
        t = RateAbove(threshold=1000.0, cooldown=60.0)
        assert t.fire_times(0.0, 10.0, 2000.0, None) == (10.0,)

    def test_quiet_below_threshold(self):
        t = RateAbove(threshold=1000.0)
        assert t.fire_times(0.0, 10.0, 500.0, None) == ()

    def test_cooldown_suppresses_refire(self):
        t = RateAbove(threshold=1000.0, cooldown=60.0)
        assert t.fire_times(10.0, 20.0, 2000.0, last_fired=10.0) == ()
        assert t.fire_times(60.0, 80.0, 2000.0, last_fired=10.0) == (80.0,)


class TestSchedule:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultSchedule.of(
                FaultEvent("a", AtTime(1.0), skew()),
                FaultEvent("a", AtTime(2.0), skew()),
            )

    def test_iteration_and_names(self):
        s = FaultSchedule.of(
            FaultEvent("a", AtTime(1.0), skew()),
            FaultEvent("b", AtTime(2.0), skew()),
        )
        assert len(s) == 2
        assert s.names() == ["a", "b"]

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("", AtTime(1.0), skew())
        with pytest.raises(ValueError):
            FaultEvent("a", AtTime(1.0), skew(), duration=0.0)

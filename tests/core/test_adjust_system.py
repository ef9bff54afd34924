"""Unit tests for the Adjust function and the simulated-system adapter."""

import pytest

from repro.core.adjust import (
    AdjustFunction,
    evaluate_config,
    theta_to_configuration,
)
from repro.core.bounds import paper_configuration_space
from repro.core.metrics_collector import MetricsCollector
from repro.core.system import SimulatedSparkSystem

from ..conftest import make_context


@pytest.fixture
def scaler():
    return paper_configuration_space()


@pytest.fixture
def system():
    return SimulatedSparkSystem(make_context(rate=50_000, interval=5.0, executors=10))


class TestThetaToConfiguration:
    def test_center_maps_to_paper_initial_point(self, scaler):
        # θ_initial = {10, 10} scaled is mid-range.
        interval, executors = theta_to_configuration([10.5, 10.5], scaler)
        assert 20.0 <= interval <= 21.0
        assert executors in (10, 11)

    def test_executors_rounded_to_int(self, scaler):
        _, executors = theta_to_configuration([5.0, 7.4], scaler)
        assert isinstance(executors, int)

    def test_clipped_to_physical_bounds(self, scaler):
        interval, executors = theta_to_configuration([0.0, 25.0], scaler)
        assert interval >= 1.0
        assert executors <= 20

    def test_interval_millisecond_resolution(self, scaler):
        interval, _ = theta_to_configuration([3.14159, 10.0], scaler)
        assert interval == round(interval, 3)


class TestAdjustFunction:
    def test_applies_and_measures(self, system, scaler):
        adjust = AdjustFunction(system, scaler, MetricsCollector(window=2))
        result = adjust([5.0, 12.0], rho=1.0)
        assert result.measurement.batches_used == 2
        assert result.objective >= result.batch_interval
        assert adjust.calls == 1
        assert system.config_changes >= 1

    def test_objective_matches_eq3(self, system, scaler):
        adjust = AdjustFunction(system, scaler, MetricsCollector(window=2))
        result = adjust([2.0, 4.0], rho=2.0)
        expected = result.batch_interval + 2.0 * max(
            0.0, result.measurement.mean_processing_time - result.batch_interval
        )
        assert result.objective == pytest.approx(expected)

    def test_stability_flag(self, system, scaler):
        adjust = AdjustFunction(system, scaler, MetricsCollector(window=2))
        stable = adjust([10.0, 16.0], rho=1.0)   # ~19s interval, 16 executors
        assert stable.stable

    def test_consecutive_calls_do_not_mix_windows(self, system, scaler):
        collector = MetricsCollector(window=3)
        adjust = AdjustFunction(system, scaler, collector)
        adjust([8.0, 14.0], rho=1.0)
        assert collector.pending == 0  # window cleanly consumed


class TestEvaluateConfig:
    def test_ranks_at_rho_cap(self, system, scaler):
        adjust = AdjustFunction(system, scaler, MetricsCollector(window=2))
        result = adjust([2.0, 3.0], rho=1.0)  # measured at low rho
        evaluated = evaluate_config(result, [2.0, 3.0], iteration=1, rho_cap=2.0)
        assert evaluated.objective >= result.objective
        assert evaluated.batch_interval == result.batch_interval

    def test_steady_state_delay_used(self, system, scaler):
        adjust = AdjustFunction(system, scaler, MetricsCollector(window=2))
        result = adjust([8.0, 14.0], rho=1.0)
        evaluated = evaluate_config(result, [8.0, 14.0], iteration=1)
        expected = result.batch_interval / 2 + result.measurement.mean_processing_time
        assert evaluated.end_to_end_delay == pytest.approx(expected)


class TestSimulatedSparkSystem:
    def test_collect_skips_stale_batches(self, scaler):
        ctx = make_context(rate=200_000, interval=2.0, executors=4,
                           queue_max_length=25)
        system = SimulatedSparkSystem(ctx)
        # Build a backlog under an undersized config.
        system.apply_configuration(2.0, 4)
        system.collect(MetricsCollector(window=3))
        change_time = ctx.time
        system.apply_configuration(6.0, 16)
        collector = MetricsCollector(window=3)
        collector.start_measurement()
        m = system.collect(collector)
        # Measured batches must have been formed after the change.
        measured = [
            b for b in ctx.listener.metrics.batches
            if b.batch_time >= change_time and not b.first_after_reconfig
        ]
        assert measured
        assert m.batches_used >= 1

    def test_observed_input_rate(self, system):
        system.collect(MetricsCollector(window=2))
        assert system.observed_input_rate() == pytest.approx(50_000, rel=0.1)

    def test_time_advances_with_collection(self, system):
        t0 = system.time
        system.collect(MetricsCollector(window=2))
        assert system.time > t0

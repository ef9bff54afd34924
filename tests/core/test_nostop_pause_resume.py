"""Targeted tests for NoStop's pause/monitor/resume machinery."""

import pytest

from repro.core.metrics_collector import Measurement
from repro.experiments.common import build_experiment, make_controller


class TestPauseMonitorResume:
    @pytest.fixture
    def paused_controller(self):
        """A controller driven until it pauses (wordcount pauses early)."""
        setup = build_experiment("wordcount", seed=3)
        controller = make_controller(setup, seed=3)
        for _ in range(40):
            controller.run_round()
            if controller.paused:
                break
        assert controller.paused, "fixture expects an early pause"
        return setup, controller

    def test_monitor_rounds_do_not_advance_spsa(self, paused_controller):
        _, controller = paused_controller
        k_before = controller.tuner.k
        controller.run_round()  # a paused monitoring round
        assert controller.tuner.k == k_before

    def test_monitor_rounds_relax_window(self, paused_controller):
        _, controller = paused_controller
        w = controller.collector.window
        controller.run_round()
        assert controller.collector.window == min(
            w + 1, controller.collector.max_window
        )

    def test_window_capped_during_long_pause(self, paused_controller):
        _, controller = paused_controller
        for _ in range(20):
            if not controller.paused:
                break
            controller.run_round()
        assert controller.collector.window <= controller.collector.max_window

    def test_monitoring_remeasures_parked_config(self, paused_controller):
        _, controller = paused_controller
        best = controller.pause_rule.best_config()
        n_before = controller.pause_rule.measurement_count(best.theta)
        controller.run_round()
        assert controller.pause_rule.measurement_count(best.theta) > n_before

    def test_instability_at_optimum_resumes_optimization(self, paused_controller):
        _, controller = paused_controller

        # Force the next monitoring measurement to look unstable.
        original_collect = controller.system.collect

        def unstable_collect(collector):
            m = original_collect(collector)
            return Measurement(
                mean_processing_time=m.mean_processing_time * 10,
                mean_end_to_end_delay=m.mean_end_to_end_delay,
                mean_scheduling_delay=m.mean_scheduling_delay,
                mean_records=m.mean_records,
                batches_used=m.batches_used,
                skipped=m.skipped,
            )

        controller.system.collect = unstable_collect
        record = controller.run_round()
        assert record.phase == "paused"  # the round that detected it
        assert not controller.paused      # ... and resumed
        controller.system.collect = original_collect
        assert controller.run_round().phase == "optimize"


class TestConfirmBest:
    def test_confirm_adds_measurements_for_singleton_winner(self):
        setup = build_experiment("wordcount", seed=6)
        controller = make_controller(setup, seed=6)
        controller.run(6, confirm=False)
        best = controller.pause_rule.best_config()
        if controller.pause_rule.measurement_count(best.theta) < 2:
            calls_before = controller.adjust.calls
            controller.confirm_best()
            assert controller.adjust.calls > calls_before
            confirmed = controller.pause_rule.best_config()
            assert controller.pause_rule.measurement_count(confirmed.theta) >= 2

    def test_confirm_is_idempotent_once_confirmed(self):
        setup = build_experiment("wordcount", seed=6)
        controller = make_controller(setup, seed=6)
        controller.run(6)  # includes confirmation
        calls = controller.adjust.calls
        controller.confirm_best()
        assert controller.adjust.calls == calls

"""Integration tests for the NoStop controller."""

import pytest

from repro.datagen.rates import SpikeRate, UniformRandomRate
from repro.experiments.common import build_experiment, make_controller


@pytest.fixture(scope="module")
def lr_run():
    """One shared NoStop run on streaming logistic regression."""
    setup = build_experiment("logistic_regression", seed=3)
    controller = make_controller(setup, seed=3)
    report = controller.run(30)
    return setup, controller, report


class TestOptimizationOutcome:
    def test_final_configuration_is_stable(self, lr_run):
        _, controller, _ = lr_run
        best = controller.pause_rule.best_config()
        assert best.stable
        assert best.mean_processing_time <= best.batch_interval * 1.05

    def test_final_interval_near_crossover(self, lr_run):
        # Calibrated crossover for LR at its band is ~8-12 s.
        _, _, report = lr_run
        assert 5.0 <= report.final_interval <= 16.0

    def test_final_executors_in_stable_region(self, lr_run):
        _, _, report = lr_run
        assert report.final_executors >= 8

    def test_beats_default_configuration_delay(self, lr_run):
        # Default is (20 s, 10 executors): steady-state delay >= 20 s.
        _, controller, _ = lr_run
        best = controller.pause_rule.best_config()
        assert best.end_to_end_delay < 20.0

    def test_two_config_changes_per_iteration(self, lr_run):
        _, controller, report = lr_run
        opt_rounds = len(report.optimization_rounds())
        # Each optimize round applies θ+ and θ- (plus pause/monitor
        # applications); ratio must stay near 2.
        assert controller.adjust.calls == 2 * opt_rounds

    def test_round_records_carry_measurements(self, lr_run):
        _, _, report = lr_run
        for r in report.optimization_rounds():
            assert r.plus_result is not None
            assert r.minus_result is not None
            assert r.mean_processing_time is not None

    def test_rho_follows_schedule(self, lr_run):
        _, _, report = lr_run
        rhos = [r.rho for r in report.rounds]
        assert rhos[0] == pytest.approx(1.1)
        assert max(rhos) <= 2.0


@pytest.fixture(scope="module")
def wordcount_run():
    """One shared 30-round NoStop run on wordcount, seed 3."""
    setup = build_experiment("wordcount", seed=3)
    controller = make_controller(setup, seed=3)
    return controller, controller.run(30)


@pytest.fixture(scope="module")
def surge_run():
    """One shared 50-round NoStop run on logistic regression under a
    2.5x rate surge between t=500 s and t=1000 s."""
    spike = SpikeRate(
        UniformRandomRate(7000, 13000, seed=9),
        spikes=((500.0, 1000.0, 2.5),),
    )
    setup = build_experiment("logistic_regression", seed=9, rate_trace=spike)
    return make_controller(setup, seed=9).run(50)


class TestPauseBehavior:
    def test_pause_eventually_fires(self, wordcount_run):
        _, report = wordcount_run
        assert report.first_pause_round is not None
        assert report.search_time is not None
        assert report.adjust_calls_to_pause is not None

    def test_paused_rounds_monitor_at_best_config(self, wordcount_run):
        _, report = wordcount_run
        paused = report.paused_rounds()
        assert paused
        for r in paused:
            assert r.monitor is not None

    def test_window_relaxes_while_paused(self, wordcount_run):
        controller, _ = wordcount_run
        if controller.paused:
            assert controller.collector.window > controller.collector.base_window


class TestResetBehavior:
    def test_rate_surge_triggers_reset(self, surge_run):
        assert surge_run.resets >= 1
        assert any(r.phase == "reset" for r in surge_run.rounds)

    def test_reset_restores_spsa_state(self, surge_run):
        resets = [r for r in surge_run.rounds if r.phase == "reset"]
        assert resets
        assert resets[0].k == 0
        assert resets[0].rho == 1.0

    def test_no_reset_under_steady_band(self):
        setup = build_experiment("wordcount", seed=4)
        controller = make_controller(setup, seed=4)
        report = controller.run(25)
        assert report.resets == 0


class TestValidation:
    def test_zero_rounds_rejected(self):
        setup = build_experiment("wordcount", seed=1)
        controller = make_controller(setup, seed=1)
        with pytest.raises(ValueError):
            controller.run(0)

    def test_determinism_across_identical_runs(self):
        r1 = make_controller(build_experiment("wordcount", seed=11), seed=11).run(15)
        r2 = make_controller(build_experiment("wordcount", seed=11), seed=11).run(15)
        assert r1.final_interval == r2.final_interval
        assert r1.final_executors == r2.final_executors

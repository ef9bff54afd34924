"""Unit tests for the penalized objective, ρ schedule, metric collection,
pause rule and rate monitor."""

import pytest

from repro.core.metrics_collector import Measurement, MetricsCollector
from repro.core.objective import RhoSchedule, penalized_objective
from repro.core.pause import EvaluatedConfig, PauseRule, steady_state_delay
from repro.core.rate_monitor import RateMonitor
from repro.streaming.metrics import BatchInfo


def binfo(idx, bt=10.0, proc=3.0, interval=5.0, first=False):
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


class TestObjective:
    def test_stable_config_pays_only_interval(self):
        assert penalized_objective(10.0, 8.0, rho=2.0) == 10.0

    def test_unstable_config_pays_penalty(self):
        assert penalized_objective(5.0, 8.0, rho=2.0) == 5.0 + 2.0 * 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            penalized_objective(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            penalized_objective(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            penalized_objective(1.0, 1.0, -0.1)


class TestRhoSchedule:
    def test_algorithm1_schedule(self):
        # Algorithm 1: rho = 1; rho += 0.1 per iteration; rho = min(rho, 2).
        rho = RhoSchedule()
        assert rho.value == 1.0
        for _ in range(10):
            rho.step()
        assert rho.value == pytest.approx(2.0)
        rho.step()
        assert rho.value == pytest.approx(2.0)  # capped

    def test_reset(self):
        rho = RhoSchedule()
        rho.step()
        rho.reset()
        assert rho.value == 1.0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            RhoSchedule(initial=3.0, cap=2.0)


class TestMetricsCollector:
    def test_window_fills_and_emits(self):
        c = MetricsCollector(window=3)
        assert c.offer(binfo(0)) is None
        assert c.offer(binfo(1)) is None
        m = c.offer(binfo(2))
        assert isinstance(m, Measurement)
        assert m.batches_used == 3
        assert m.mean_processing_time == pytest.approx(3.0)

    def test_first_after_reconfig_skipped(self):
        # §5.4: "The first processed batch after changing configurations
        # is not considered".
        c = MetricsCollector(window=2)
        assert c.offer(binfo(0, first=True)) is None
        assert c.offer(binfo(1)) is None
        m = c.offer(binfo(2))
        assert m.batches_used == 2
        assert m.skipped == 1

    def test_additive_increase_and_cap(self):
        c = MetricsCollector(window=3, max_window=5)
        assert c.relax_window() == 4
        assert c.relax_window() == 5
        assert c.relax_window() == 5  # capped

    def test_reset_window(self):
        c = MetricsCollector(window=3)
        c.relax_window()
        c.offer(binfo(0))
        c.reset_window()
        assert c.window == 3
        assert c.pending == 0

    def test_start_measurement_clears_buffer(self):
        c = MetricsCollector(window=3)
        c.offer(binfo(0))
        c.start_measurement()
        assert c.pending == 0

    def test_summarize_includes_std(self):
        c = MetricsCollector()
        m = c.summarize([binfo(0, proc=2.0), binfo(1, proc=4.0)])
        assert m.std_processing_time == pytest.approx(1.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            MetricsCollector(window=0)
        with pytest.raises(ValueError):
            MetricsCollector(window=5, max_window=3)
        with pytest.raises(ValueError):
            MetricsCollector().summarize([])


def ev(obj, delay, stable=True, k=1, theta=None):
    # Distinct θ per record unless the test exercises aggregation.
    return EvaluatedConfig(
        theta=theta if theta is not None else (float(k), float(obj)),
        objective=obj,
        end_to_end_delay=delay,
        iteration=k,
        stable=stable,
    )


class TestPauseRule:
    def test_no_pause_before_n_evaluations(self):
        rule = PauseRule(n_best=5)
        for i in range(4):
            rule.record(ev(10.0, 12.0, k=i))
        assert not rule.should_pause()

    def test_pause_when_best_delays_agree(self):
        rule = PauseRule(n_best=4)
        for i in range(6):
            rule.record(ev(10.0 + i, 12.0 + 0.1 * i, k=i))
        assert rule.should_pause()

    def test_no_pause_when_delays_scatter(self):
        rule = PauseRule(n_best=4)
        for i in range(6):
            rule.record(ev(10.0, 10.0 * i, k=i))
        assert not rule.should_pause()

    def test_stable_configs_rank_first(self):
        rule = PauseRule()
        rule.record(ev(3.0, 5.0, stable=False))
        rule.record(ev(8.0, 10.0, stable=True))
        assert rule.best_config().objective == 8.0

    def test_best_config_requires_history(self):
        with pytest.raises(RuntimeError):
            PauseRule().best_config()

    def test_reset_clears_history(self):
        rule = PauseRule()
        rule.record(ev(1.0, 1.0))
        rule.reset()
        assert rule.evaluations == 0

    def test_repeated_measurements_are_averaged(self):
        rule = PauseRule()
        theta = (2.0, 3.0)
        rule.record(EvaluatedConfig(
            theta=theta, objective=4.0, end_to_end_delay=6.0, iteration=1,
            batch_interval=4.0, num_executors=8,
            mean_processing_time=3.0, stable=True,
        ))
        rule.record(EvaluatedConfig(
            theta=theta, objective=8.0, end_to_end_delay=10.0, iteration=2,
            batch_interval=4.0, num_executors=8,
            mean_processing_time=5.0, stable=False,
        ))
        best = rule.best_config()
        assert best.objective == 6.0
        assert best.mean_processing_time == 4.0
        # Averaged proc (4.0) exceeds interval*(1-margin): unstable.
        assert not best.stable
        assert rule.measurement_count(theta) == 2

    def test_lucky_singleton_loses_to_confirmed_config(self):
        rule = PauseRule()
        # One lucky window for an actually-bad config...
        rule.record(EvaluatedConfig(
            theta=(1.0, 1.0), objective=3.0, end_to_end_delay=4.0,
            iteration=1, batch_interval=3.0, num_executors=8,
            mean_processing_time=2.0, stable=True,
        ))
        # ...followed by its honest re-measurement.
        rule.record(EvaluatedConfig(
            theta=(1.0, 1.0), objective=15.0, end_to_end_delay=12.0,
            iteration=2, batch_interval=3.0, num_executors=8,
            mean_processing_time=9.0, stable=False,
        ))
        # A steadily-good config measured once.
        rule.record(EvaluatedConfig(
            theta=(5.0, 5.0), objective=8.0, end_to_end_delay=9.0,
            iteration=3, batch_interval=8.0, num_executors=10,
            mean_processing_time=6.0, stable=True,
        ))
        assert rule.best_config().theta == (5.0, 5.0)

    def test_repeated_theta_does_not_pass_the_gate(self):
        # Regression: ten measurements of only two distinct configs used
        # to satisfy the raw-length gate, so the std was taken over two
        # (near-identical, because averaged) delays and optimization
        # paused far too early.  The gate must count distinct grouped
        # configurations.
        rule = PauseRule(n_best=4)
        for i in range(10):
            theta = (1.0, 1.0) if i % 2 else (2.0, 2.0)
            rule.record(ev(10.0, 12.0 + 0.05 * i, k=i, theta=theta))
        assert len(rule._history) >= rule.n_best
        assert not rule.should_pause()

    def test_distinct_configs_still_pause(self):
        # The same delays spread over enough *distinct* configurations
        # satisfy the rule as before.
        rule = PauseRule(n_best=4)
        for i in range(10):
            rule.record(ev(10.0 + i, 12.0 + 0.05 * i, k=i))
        assert rule.should_pause()

    def test_repeats_of_enough_distinct_configs_pause(self):
        # Repeats are fine once the distinct-config count clears n_best:
        # paused-phase monitoring keeps re-recording the winner.
        rule = PauseRule(n_best=3)
        for i in range(3):
            rule.record(ev(10.0 + i, 12.0 + 0.1 * i, k=i))
        for i in range(5):  # winner re-measured while paused
            rule.record(ev(10.0, 12.0, k=10 + i, theta=(0.0, 10.0)))
        assert rule.should_pause()

    def test_steady_state_delay(self):
        assert steady_state_delay(10.0, 8.0) == pytest.approx(13.0)
        with pytest.raises(ValueError):
            steady_state_delay(0.0, 1.0)


class EightRateMonitor(RateMonitor):
    WINDOW = 8


class TwoOfSixMonitor(RateMonitor):
    """A monitor over the last six rates that may fire from two."""

    WINDOW = 6
    MIN_SAMPLES = 2


class TestRateMonitor:
    def test_stable_rate_never_resets(self):
        m = RateMonitor()
        for _ in range(20):
            m.observe(10_000.0)
        assert not m.need_reset()

    def test_surge_triggers_reset(self):
        # §5.5: a traffic surge must trigger a coefficient reset.
        m = EightRateMonitor()
        for _ in range(4):
            m.observe(10_000.0)
        for _ in range(4):
            m.observe(30_000.0)
        assert m.need_reset()

    def test_small_fluctuation_is_noise(self):
        # §5.5: small fluctuations are treated as noise by SPSA.
        m = RateMonitor()
        for r in (9_500, 10_200, 10_100, 9_800, 10_400, 9_900):
            m.observe(float(r))
        assert not m.need_reset()

    def test_needs_min_samples(self):
        m = RateMonitor()
        assert m.MIN_SAMPLES == 4
        m.observe(1.0)
        m.observe(10_000.0)
        assert not m.need_reset()

    def test_acknowledge_clears_window(self):
        m = TwoOfSixMonitor()
        m.observe(1_000.0)
        m.observe(50_000.0)
        assert m.need_reset()
        m.acknowledge_reset()
        assert not m.need_reset()
        assert m.resets_triggered == 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RateMonitor().observe(-1.0)

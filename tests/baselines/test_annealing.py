"""Tests for the simulated-annealing tuner on a live system."""

import numpy as np
import pytest

from repro.core.bounds import paper_configuration_space
from repro.experiments.common import build_experiment
from repro.tuners import make_tuner, run_tuner
from repro.tuners.adapters import AnnealingTuner


def _anneal(seed, max_evaluations):
    setup = build_experiment("wordcount", seed=seed)
    tuner = make_tuner("annealing", setup.scaler, seed=seed)
    report = run_tuner(
        tuner, setup.system, setup.scaler, max_evaluations=max_evaluations
    )
    return tuner, report


class TestSimulatedAnnealing:
    def test_reports_comparable_axes(self):
        tuner, report = _anneal(9, 20)
        assert 1 <= report.evaluations <= 20
        assert report.search_time > 0
        assert tuner.accepted >= 0
        assert tuner.temperature < AnnealingTuner.INITIAL_TEMPERATURE

    def test_finds_better_than_start(self):
        _, report = _anneal(10, 30)
        start = report.evaluated[0]
        assert report.best_objective <= start.objective

    def test_accepts_some_moves(self):
        tuner, _ = _anneal(11, 25)
        assert tuner.accepted > 0

    def test_cools_geometrically_after_the_start(self):
        tuner, report = _anneal(16, 12)
        # The centre measurement sets the incumbent without cooling.
        assert tuner.temperature == pytest.approx(
            AnnealingTuner.INITIAL_TEMPERATURE
            * AnnealingTuner.COOLING ** (report.evaluations - 1)
        )

    def test_acceptance_rule(self):
        # Improvements are always accepted; at a near-zero temperature a
        # regression never is.
        tuner = make_tuner("annealing", paper_configuration_space(), seed=0)
        tuner.temperature = 1e-9
        start = tuner.ask()
        tuner.observe(start, 10.0)
        better = tuner.ask()
        tuner.observe(better, 5.0)
        assert tuner.accepted == 1
        np.testing.assert_array_equal(tuner.current, better)
        tuner.observe(tuner.ask(), 50.0)
        assert tuner.accepted == 1
        np.testing.assert_array_equal(tuner.current, better)

    def test_starts_at_the_centre(self):
        tuner, report = _anneal(17, 3)
        assert report.evaluated[0].theta == tuple(tuner.box.center())

    def test_deterministic_given_seed(self):
        thetas = []
        for _ in range(2):
            _, report = _anneal(12, 6)
            thetas.append([e.theta for e in report.evaluated])
        assert thetas[0] == thetas[1]

    @pytest.mark.parametrize("kwargs", [{"max_evaluations": 0}])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            _anneal(13, **kwargs)


class TestNoStopUnderFailures:
    """NoStop's transparency to infrastructure churn (contribution #5)."""

    def test_optimization_survives_executor_crash(self):
        setup = build_experiment("wordcount", seed=14)
        from repro.experiments.common import make_controller

        controller = make_controller(setup, seed=14)
        controller.run(5)
        # Crash two executors mid-optimization.
        setup.context.inject_executor_failure()
        setup.context.inject_executor_failure()
        shrunk = setup.context.num_executors
        controller.run(10)
        best = controller.pause_rule.best_config()
        # The next Adjust call restored an explicit executor count.
        assert setup.context.num_executors != shrunk or \
            setup.context.num_executors >= 1
        assert setup.context.resource_manager.executor_failures == 2
        assert best.stable

    def test_task_faults_slow_but_do_not_break_tuning(self):
        from repro.engine.faults import FaultModel
        from repro.experiments.common import make_controller
        from repro.streaming.context import StreamingConfig, StreamingContext
        from repro.cluster.cluster import paper_cluster
        from repro.kafka.cluster import paper_kafka_cluster
        from repro.datagen.generator import DataGenerator
        from repro.datagen.rates import paper_rate_trace
        from repro.workloads import make_workload
        from repro.core.system import SimulatedSparkSystem
        from repro.core.bounds import paper_configuration_space
        from repro.experiments.common import ExperimentSetup

        cluster = paper_cluster()
        kafka = paper_kafka_cluster(cluster.total_cores)
        workload = make_workload("wordcount")
        gen = DataGenerator(
            kafka.topic("events"), paper_rate_trace("wordcount", seed=15),
            payload_kind="text", seed=15,
        )
        ctx = StreamingContext(
            cluster, workload, gen, StreamingConfig(10.0, 10), seed=15,
            queue_max_length=25, faults=FaultModel(task_failure_prob=0.05),
        )
        setup = ExperimentSetup(
            cluster=cluster, kafka=kafka, workload=workload, generator=gen,
            context=ctx, system=SimulatedSparkSystem(ctx),
            scaler=paper_configuration_space(),
        )
        controller = make_controller(setup, seed=15)
        controller.run(20)
        best = controller.pause_rule.best_config()
        assert best.stable
        # Faults actually fired during the run.
        assert ctx.engine.total_task_failures > 0
        assert ctx.engine.jobs_run > 0

"""Tests for the multi-parameter (3-tunable) future-work extension."""

import numpy as np
import pytest

from repro.core.adjust import theta_to_configuration
from repro.core.bounds import multi_parameter_space
from repro.core.nostop import NoStopController
from repro.experiments.common import build_experiment, make_controller


@pytest.fixture
def scaler3():
    return multi_parameter_space()


class TestMultiParameterSpace:
    def test_three_axes(self, scaler3):
        assert scaler3.physical.dim == 3
        assert scaler3.scaled.dim == 3

    def test_theta_to_configuration_returns_partitions(self, scaler3):
        interval, executors, partitions = theta_to_configuration(
            [10.5, 10.5, 10.5], scaler3
        )
        assert 1.0 <= interval <= 40.0
        assert 1 <= executors <= 20
        assert 8 <= partitions <= 120
        assert isinstance(partitions, int)

    def test_partitions_clipped(self, scaler3):
        _, _, partitions = theta_to_configuration([10.0, 10.0, 50.0], scaler3)
        assert partitions == 120

    def test_five_axes_rejected(self):
        # Four axes (the tournament's executor-cores extension) are the
        # ceiling of the supported configuration space; five are not.
        from repro.core.bounds import Box, MinMaxScaler

        scaler5 = MinMaxScaler(
            Box([0.0] * 5, [1.0] * 5), Box([0.0] * 5, [1.0] * 5)
        )
        with pytest.raises(ValueError):
            theta_to_configuration([0.5] * 5, scaler5)


class TestPartitionsAffectSystem:
    def test_partitions_applied_to_workload(self):
        setup = build_experiment("wordcount", seed=1)
        setup.system.apply_configuration(5.0, 10, partitions=16)
        assert setup.workload.partitions == 16
        setup.system.collect(make_controller(setup).collector)
        job_tasks = {s.num_tasks for b in [1] for s in
                     setup.workload.build_job(0.0, 100, np.random.default_rng(0)).stages}
        assert job_tasks == {16}

    def test_too_few_partitions_hurt_parallelism(self):
        # 4 partitions on 16 executors: 12 cores idle per stage wave.
        few = build_experiment("wordcount", seed=2)
        few.context.change_configuration(
            batch_interval=4.0, num_executors=16, partitions=4
        )
        many = build_experiment("wordcount", seed=2)
        many.context.change_configuration(
            batch_interval=4.0, num_executors=16, partitions=40
        )
        few_proc = [b.processing_time for b in few.context.advance_batches(10)]
        many_proc = [b.processing_time for b in many.context.advance_batches(10)]
        assert np.mean(few_proc) > np.mean(many_proc)


class TestThreeParameterOptimization:
    def test_nostop_runs_in_three_dimensions(self):
        setup = build_experiment("wordcount", seed=5)
        controller = NoStopController(
            system=setup.system,
            scaler=multi_parameter_space(),
            seed=5,
        )
        report = controller.run(15, confirm=False)
        assert controller.tuner.box.dim == 3
        best = controller.pause_rule.best_config()
        assert len(best.theta) == 3
        # Still two measurements per iteration despite the extra axis.
        opt = len(report.optimization_rounds())
        assert controller.adjust.calls == 2 * opt

    def test_three_dim_finds_stable_config(self):
        setup = build_experiment("wordcount", seed=6)
        controller = NoStopController(
            system=setup.system, scaler=multi_parameter_space(), seed=6
        )
        controller.run(25)
        assert controller.pause_rule.best_config().stable

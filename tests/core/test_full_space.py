"""The four-axis configuration space and its reconfiguration plumbing."""

import numpy as np
import pytest

from repro.core.adjust import AdjustFunction, theta_to_configuration
from repro.core.bounds import Box, MinMaxScaler, full_parameter_space
from repro.core.metrics_collector import MetricsCollector
from repro.experiments.common import build_experiment


def test_full_space_axes_and_bounds():
    space = full_parameter_space()
    assert space.physical.dim == 4
    assert list(space.physical.lower) == [1.0, 2.0, 8.0, 1.0]
    assert list(space.physical.upper) == [40.0, 16.0, 96.0, 2.0]
    # All axes share the paper's [1, 20] scaled range.
    assert list(space.scaled.lower) == [1.0] * 4
    assert list(space.scaled.upper) == [20.0] * 4


def test_theta_to_configuration_four_axes():
    space = full_parameter_space()
    config = theta_to_configuration(space.scaled.center(), space)
    assert len(config) == 4
    interval, executors, partitions, cores = config
    assert 1.0 <= interval <= 40.0
    assert isinstance(executors, int) and 2 <= executors <= 16
    assert isinstance(partitions, int) and 8 <= partitions <= 96
    assert isinstance(cores, int) and 1 <= cores <= 2


def test_theta_to_configuration_rejects_bad_dims():
    # A short θ must not broadcast against the 4-axis bounds.
    space = full_parameter_space()
    with pytest.raises(ValueError, match="theta has 1 axes"):
        theta_to_configuration([1.0], space)
    # And a genuinely 1-axis space is outside the supported 2–4 range.
    one_axis = MinMaxScaler(Box([1.0], [40.0]), Box([1.0], [20.0]))
    with pytest.raises(ValueError, match="2 to 4 axes"):
        theta_to_configuration([5.0], one_axis)


@pytest.mark.parametrize("fidelity", ["exact", "vectorized"])
def test_core_resize_applies_through_both_tiers(fidelity):
    setup = build_experiment("wordcount", seed=1, fidelity=fidelity)
    context = setup.context
    # The paper fixes 1 core / 1 GB per executor; that is the baseline.
    assert context.resource_manager.executor_cores == 1
    context.change_configuration(executor_cores=2)
    assert context.resource_manager.executor_cores == 2
    assert all(e.cores == 2 for e in context.resource_manager.executors)
    assert context.config_changes == 1


@pytest.mark.parametrize("fidelity", ["exact", "vectorized"])
def test_adjust_drives_all_four_axes(fidelity):
    space = full_parameter_space()
    setup = build_experiment("wordcount", seed=2, fidelity=fidelity)
    adjust = AdjustFunction(setup.system, space, MetricsCollector())
    theta = np.array([6.0, 14.0, 10.0, 1.0])  # scaled; cores axis low
    result = adjust(theta, 2.0)
    assert not result.apply_failed
    config = theta_to_configuration(theta, space)
    assert setup.context.resource_manager.executor_cores == config[3]
    assert setup.context.resource_manager.executor_count == config[1]
    assert result.measurement.batches_used > 0


def test_core_resize_changes_simulated_throughput():
    """Halving executor cores must slow processing — the per-core task
    slots are real in the engine, not bookkeeping."""
    def mean_proc(cores):
        setup = build_experiment("wordcount", seed=3, fidelity="vectorized")
        setup.context.change_configuration(
            num_executors=8, executor_cores=cores
        )
        collector = MetricsCollector()
        collector.start_measurement()
        return setup.system.collect(collector).mean_processing_time

    assert mean_proc(1) > mean_proc(2) * 1.2

"""Unit tests for workload cost models."""

import numpy as np
import pytest

from repro.workloads.cost_models import (
    LINEAR_REGRESSION_COSTS,
    LOGISTIC_REGRESSION_COSTS,
    PAGE_ANALYZE_COSTS,
    WORDCOUNT_COSTS,
    IterationModel,
    StageCost,
    WorkloadCostModel,
)


class TestStageCost:
    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            StageCost("x", compute_per_record=-1.0)
        with pytest.raises(ValueError):
            StageCost("x", compute_per_record=0.0, io_per_record=-1.0)


class TestIterationModel:
    def test_deterministic_when_degenerate(self):
        m = IterationModel(lo=3, hi=3)
        rng = np.random.default_rng(0)
        assert all(m.draw(rng) == 3 for _ in range(10))

    def test_draws_within_range(self):
        m = IterationModel(lo=4, hi=7)
        rng = np.random.default_rng(0)
        draws = {m.draw(rng) for _ in range(200)}
        assert draws == {4, 5, 6, 7}

    def test_mean(self):
        assert IterationModel(lo=4, hi=7).mean == 5.5

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            IterationModel(lo=0, hi=1)
        with pytest.raises(ValueError):
            IterationModel(lo=5, hi=4)


class TestWorkloadCostModel:
    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError):
            WorkloadCostModel(
                stages=(StageCost("a", 1e-6), StageCost("a", 1e-6))
            )

    def test_unknown_iterated_stage_rejected(self):
        with pytest.raises(ValueError):
            WorkloadCostModel(
                stages=(StageCost("a", 1e-6),), iterated_stages=("b",)
            )


def mean_cost_per_record(model):
    """Expected core-seconds per record: every stage, mean iterations."""
    return sum(
        (model.iterations.mean if s.name in model.iterated_stages else 1.0)
        * (s.compute_per_record + s.io_per_record)
        for s in model.stages
    )


class TestCalibration:
    """Cross-workload calibration properties the figures depend on."""

    def test_lr_is_heaviest_per_record(self):
        costs = {
            "lr": mean_cost_per_record(LOGISTIC_REGRESSION_COSTS),
            "lin": mean_cost_per_record(LINEAR_REGRESSION_COSTS),
            "wc": mean_cost_per_record(WORDCOUNT_COSTS),
            "pa": mean_cost_per_record(PAGE_ANALYZE_COSTS),
        }
        assert costs["lr"] > costs["lin"] > costs["wc"]
        assert costs["lr"] > costs["pa"]

    def test_ml_workloads_iterate(self):
        assert LOGISTIC_REGRESSION_COSTS.iterations.hi > 1
        assert LINEAR_REGRESSION_COSTS.iterations.hi > 1
        assert WORDCOUNT_COSTS.iterations.hi == 1
        assert PAGE_ANALYZE_COSTS.iterations.hi == 1

    def test_wordcount_has_two_stages(self):
        # §6.3: "only requires two mapping/reducing operations".
        assert len(WORDCOUNT_COSTS.stages) == 2

    def test_page_analyze_has_io(self):
        # Writes results back into HDFS.
        assert any(s.io_per_record > 0 for s in PAGE_ANALYZE_COSTS.stages)

    def test_interval_slope_below_half_at_operating_point(self):
        """The stability crossover is the minimum of the ρ-capped
        objective only when d(proc)/d(interval) < 0.5 at the operating
        executor count (see cost_models docstring)."""
        operating = {
            LOGISTIC_REGRESSION_COSTS: 10_000,
            LINEAR_REGRESSION_COSTS: 100_000,
            WORDCOUNT_COSTS: 150_000,
            PAGE_ANALYZE_COSTS: 200_000,
        }
        for model, rate in operating.items():
            slope = rate * mean_cost_per_record(model) / (0.94 * 12)
            assert slope < 0.5, f"slope {slope:.2f} too steep for {model}"

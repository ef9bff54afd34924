"""Unit tests for the acquisition function."""

import numpy as np
import pytest

from repro.baselines.acquisition import expected_improvement


class TestExpectedImprovement:
    def test_prefers_lower_mean(self):
        ei = expected_improvement(
            mean=np.array([1.0, 5.0]), std=np.array([1.0, 1.0]), best=3.0
        )
        assert ei[0] > ei[1]

    def test_prefers_higher_uncertainty_at_equal_mean(self):
        ei = expected_improvement(
            mean=np.array([3.0, 3.0]), std=np.array([0.1, 2.0]), best=3.0
        )
        assert ei[1] > ei[0]

    def test_zero_std_deterministic_improvement(self):
        ei = expected_improvement(
            mean=np.array([1.0, 5.0]), std=np.array([0.0, 0.0]), best=3.0, xi=0.0
        )
        assert ei[0] == pytest.approx(2.0)
        assert ei[1] == 0.0

    def test_always_nonnegative(self):
        rng = np.random.default_rng(0)
        ei = expected_improvement(
            mean=rng.normal(size=100), std=np.abs(rng.normal(size=100)), best=0.0
        )
        assert np.all(ei >= 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expected_improvement(np.zeros(2), np.zeros(3), best=0.0)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            expected_improvement(np.zeros(1), np.array([-1.0]), best=0.0)

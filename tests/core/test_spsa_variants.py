"""Unit tests for the SPSA variants."""

import numpy as np
import pytest

from repro.core.bounds import Box
from repro.core.gains import GainSchedule
from repro.core.spsa_variants import AveragedSPSA, OneMeasurementSPSA


def quadratic(target):
    t = np.asarray(target)
    return lambda theta: float(np.sum((theta - t) ** 2))


def noisy_quadratic(target, sigma, seed=0):
    t = np.asarray(target)
    rng = np.random.default_rng(seed)
    return lambda theta: float(np.sum((theta - t) ** 2) + rng.normal(0, sigma))


BOX = Box([0.0, 0.0], [10.0, 10.0])
GAINS = GainSchedule(a=2.0, c=0.5, A=1.0)


class TestOneMeasurementSPSA:
    def test_single_measurement_per_iteration(self):
        opt = OneMeasurementSPSA(GAINS, BOX, [5.0, 5.0], seed=0)
        calls = []
        opt.step(lambda t: calls.append(1) or 1.0)
        assert len(calls) == 1
        assert opt.total_measurements == 1

    def test_converges_on_quadratic(self):
        # Higher-variance than two-sided SPSA: generous tolerance.
        opt = OneMeasurementSPSA(
            GainSchedule(a=1.0, c=0.5, A=1.0), BOX, [8.0, 2.0], seed=1
        )
        theta = opt.minimize(quadratic([4.0, 6.0]), iterations=600)
        assert np.allclose(theta, [4.0, 6.0], atol=1.5)

    def test_stays_in_box(self):
        opt = OneMeasurementSPSA(GAINS, BOX, [5.0, 5.0], seed=2)
        rng = np.random.default_rng(2)
        for _ in range(30):
            opt.step(lambda t: float(rng.normal()))
            assert BOX.contains(opt.theta)

    def test_nonfinite_rejected(self):
        opt = OneMeasurementSPSA(GAINS, BOX, [5.0, 5.0], seed=0)
        with pytest.raises(ValueError):
            opt.step(lambda t: float("inf"))


class TestAveragedSPSA:
    def test_measurement_accounting(self):
        opt = AveragedSPSA(GAINS, BOX, [5.0, 5.0], num_estimates=3, seed=0)
        opt.step(lambda t: 1.0)
        assert opt.total_measurements == 6

    def test_reduces_gradient_variance(self):
        # Estimate the gradient at a fixed point many times with m=1 and
        # m=4; the averaged gradients must scatter less.
        def grad_samples(m, n=60):
            samples = []
            for seed in range(n):
                opt = AveragedSPSA(
                    GAINS, BOX, [5.0, 5.0], num_estimates=m, seed=seed
                )
                record = opt.step(noisy_quadratic([2.0, 2.0], sigma=4.0, seed=seed))
                samples.append(record.gradient)
            return np.array(samples)

        var1 = np.var(grad_samples(1), axis=0).mean()
        var4 = np.var(grad_samples(4), axis=0).mean()
        assert var4 < var1

    def test_converges_under_noise(self):
        opt = AveragedSPSA(
            GainSchedule(a=2.0, c=0.8, A=1.0), BOX, [9.0, 1.0],
            num_estimates=3, seed=3,
        )
        theta = opt.minimize(
            noisy_quadratic([4.0, 6.0], sigma=1.0, seed=3), iterations=150
        )
        assert np.allclose(theta, [4.0, 6.0], atol=1.2)

    def test_reset_clears_measurements(self):
        opt = AveragedSPSA(GAINS, BOX, [5.0, 5.0], num_estimates=2, seed=0)
        opt.step(lambda t: 1.0)
        opt.reset()
        assert opt.total_measurements == 0
        assert opt.k == 0

    def test_invalid_num_estimates(self):
        with pytest.raises(ValueError):
            AveragedSPSA(GAINS, BOX, [5.0, 5.0], num_estimates=0)

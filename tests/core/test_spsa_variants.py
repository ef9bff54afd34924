"""The ``probes`` estimators of ``NoStopTuner`` besides the paper's two:
one-measurement SPSA (``probes=1``) and gradient-averaged SPSA
(``probes=2m``)."""

import numpy as np

from repro.core.bounds import Box
from repro.core.gains import GainSchedule

from .test_spsa import make_tuner, minimize


def quadratic(target):
    t = np.asarray(target)
    return lambda theta: float(np.sum((theta - t) ** 2))


def noisy_quadratic(target, sigma, seed=0):
    t = np.asarray(target)
    rng = np.random.default_rng(seed)
    return lambda theta: float(np.sum((theta - t) ** 2) + rng.normal(0, sigma))


BOX = Box([0.0, 0.0], [10.0, 10.0])
GAINS = GainSchedule(a=2.0, c=0.5, A=1.0)


def _tuner(probes, theta0=(5.0, 5.0), seed=0, gains=GAINS):
    return make_tuner(theta0=theta0, seed=seed, probes=probes, gains=gains)


class TestOneMeasurementSPSA:
    def test_single_measurement_per_iteration(self):
        tuner = _tuner(1)
        tuner.observe(tuner.ask(), 1.0)
        assert tuner.k == 1
        assert tuner.pending is None
        record = tuner.history[-1]
        assert np.isnan(record.y_minus)
        np.testing.assert_array_equal(record.theta_minus, record.theta)

    def test_converges_on_quadratic(self):
        # Higher-variance than two-sided SPSA: generous tolerance.
        tuner = _tuner(
            1, (8.0, 2.0), seed=1, gains=GainSchedule(a=1.0, c=0.5, A=1.0)
        )
        theta, calls = minimize(tuner, quadratic([4.0, 6.0]), 600)
        assert np.allclose(theta, [4.0, 6.0], atol=1.5)
        assert calls == 600

    def test_stays_in_box(self):
        tuner = _tuner(1, seed=2)
        rng = np.random.default_rng(2)
        for _ in range(30):
            minimize(tuner, lambda t: float(rng.normal()), 1)
            assert BOX.contains(tuner.theta)


class TestAveragedSPSA:
    def test_measurement_accounting(self):
        tuner = _tuner(6)
        for _ in range(5):
            tuner.observe(tuner.ask(), 1.0)
            assert tuner.k == 0
        tuner.observe(tuner.ask(), 1.0)
        assert tuner.k == 1

    def test_reduces_gradient_variance(self):
        # Estimate the gradient at a fixed point many times with m=1 and
        # m=4; the averaged gradients must scatter less.
        def grad_samples(m, n=60):
            samples = []
            for seed in range(n):
                tuner = _tuner(2 * m, seed=seed)
                minimize(
                    tuner, noisy_quadratic([2.0, 2.0], sigma=4.0, seed=seed), 1
                )
                samples.append(tuner.history[-1].gradient)
            return np.array(samples)

        var1 = np.var(grad_samples(1), axis=0).mean()
        var4 = np.var(grad_samples(4), axis=0).mean()
        assert var4 < var1

    def test_converges_under_noise(self):
        tuner = _tuner(
            6, (9.0, 1.0), seed=3, gains=GainSchedule(a=2.0, c=0.8, A=1.0)
        )
        theta, _ = minimize(
            tuner, noisy_quadratic([4.0, 6.0], sigma=1.0, seed=3), 150
        )
        assert np.allclose(theta, [4.0, 6.0], atol=1.2)

    def test_reset_clears_measurements(self):
        tuner = _tuner(4)
        minimize(tuner, lambda t: 1.0, 1)
        tuner.observe(tuner.ask(), 1.0)
        tuner.observe(tuner.ask(), 2.0)
        assert set(tuner.pending) == {"gradients"}
        tuner.restart()
        assert tuner.pending is None
        assert tuner.k == 0
        # The next iteration averages only its own two pairs.
        minimize(tuner, lambda t: 1.0, 1)
        np.testing.assert_array_equal(tuner.history[-1].gradient, [0.0, 0.0])

"""SPSA (``NoStopTuner`` ask/observe) on synthetic objectives."""

import numpy as np
import pytest

from repro.core.bounds import Box, MinMaxScaler
from repro.core.gains import GainSchedule
from repro.tuners import NoStopTuner
from repro.tuners.base import DIVERGENCE_PENALTY


def make_tuner(
    theta0=(8.0, 8.0), a=2.0, c=0.5, seed=0, lo=0.0, hi=10.0, probes=2,
    dim=2, gains=None,
):
    """An SPSA tuner on the box ``[lo, hi]^dim``, scaled to itself."""
    box = Box([lo] * dim, [hi] * dim)
    return NoStopTuner(
        MinMaxScaler(box, box),
        seed=seed,
        gains=gains or GainSchedule(a=a, c=c, A=1.0),
        theta_initial=theta0,
        probes=probes,
    )


def minimize(tuner, measure, iterations):
    """Run ``iterations`` full SPSA iterations; returns the final θ and
    the number of measurements taken."""
    calls = 0
    for _ in range(iterations * tuner.probes):
        theta = tuner.ask()
        calls += 1
        tuner.observe(theta, measure(theta))
    return tuner.theta.copy(), calls


class TestMechanics:
    def test_each_iteration_uses_two_measurements(self):
        tuner = make_tuner()
        tuner.observe(tuner.ask(), 0.0)
        assert tuner.k == 0 and not tuner.history
        tuner.observe(tuner.ask(), 0.0)
        assert tuner.k == 1 and len(tuner.history) == 1
        assert tuner.pending is None

    def test_probes_are_symmetric_around_theta(self):
        tuner = make_tuner()
        theta_plus, theta_minus = tuner.ask(), tuner.ask()
        delta = np.asarray(tuner.pending["delta"])
        mid = (theta_plus + theta_minus) / 2
        assert np.allclose(mid, tuner.theta)
        assert np.allclose(theta_plus - tuner.theta, tuner.pending["ck"] * delta)

    def test_probes_projected_into_box(self):
        tuner = make_tuner(theta0=(0.0, 10.0), c=3.0)
        for probe in (tuner.ask(), tuner.ask()):
            assert tuner.box.contains(probe)

    def test_update_moves_against_gradient_sign(self):
        tuner = make_tuner(theta0=(5.0, 5.0))
        # Objective increasing in both coordinates: theta must decrease.
        minimize(tuner, lambda t: float(t.sum()), 1)
        assert np.all(tuner.theta <= 5.0)
        assert tuner.k == 1

    def test_history_records_iterations(self):
        tuner = make_tuner()
        minimize(tuner, lambda t: float(t @ t), 5)
        assert len(tuner.history) == 5
        assert [h.k for h in tuner.history] == [1, 2, 3, 4, 5]

    def test_reset_restores_initial_state(self):
        tuner = make_tuner(theta0=(7.0, 3.0))
        minimize(tuner, lambda t: float(t @ t), 3)
        tuner.restart()
        assert tuner.k == 0
        assert np.allclose(tuner.theta, [7.0, 3.0])
        assert not tuner.history

    def test_reset_with_new_start(self):
        tuner = make_tuner(theta0=(1.0, 2.0))
        assert np.allclose(tuner.theta, [1.0, 2.0])
        minimize(tuner, lambda t: float(t @ t), 3)
        tuner.restart()
        assert np.allclose(tuner.theta, [1.0, 2.0])

    @pytest.mark.parametrize("probes", [1, 2, 4])
    def test_gradient_estimate_per_probes_mode(self, probes):
        # probes=1: y⁺/(c_k Δ); probes=2: (y⁺ − y⁻)/(2 c_k Δ); probes=2m:
        # the mean of m such estimates, each with its own Δ.
        tuner = make_tuner(probes=probes)
        ys = iter([3.0, 11.0, 7.0, 2.0])
        estimates = []
        for i in range(probes):
            theta = tuner.ask()
            if i % 2 == 0:
                delta = np.asarray(tuner.pending["delta"])
                c_k = tuner.pending["ck"]
                y_plus = next(ys)
                tuner.observe(theta, y_plus)
                if probes == 1:
                    estimates.append(y_plus / (c_k * delta))
            else:
                y_minus = next(ys)
                tuner.observe(theta, y_minus)
                estimates.append((y_plus - y_minus) / (2.0 * c_k * delta))
        assert tuner.k == 1
        np.testing.assert_array_equal(
            tuner.history[-1].gradient, np.mean(estimates, axis=0)
        )

    @pytest.mark.parametrize("probes", [1, 2, 4])
    def test_nonfinite_measurement_clamped(self, probes):
        # A diverged probe steps like one measured at DIVERGENCE_PENALTY.
        clamped = make_tuner(probes=probes)
        penalized = make_tuner(probes=probes)
        for i in range(probes):
            y = float("nan") if i % 2 == 0 else 3.0
            clamped.observe(clamped.ask(), y)
            penalized.observe(
                penalized.ask(), DIVERGENCE_PENALTY if i % 2 == 0 else 3.0
            )
        assert clamped.k == 1
        assert clamped.history[-1].y_plus == DIVERGENCE_PENALTY
        np.testing.assert_array_equal(clamped.theta, penalized.theta)

    @pytest.mark.parametrize("probes", [0, 3, -2])
    def test_invalid_probes_rejected(self, probes):
        with pytest.raises(ValueError, match="probes"):
            make_tuner(probes=probes)

    def test_invalid_gains_rejected_at_construction(self):
        with pytest.raises(ValueError):
            make_tuner(
                theta0=[0.5], lo=0.0, hi=1.0, dim=1,
                gains=GainSchedule(a=1.0, c=1.0, alpha=0.6, gamma=0.4),
            )


class TestConvergence:
    def test_converges_on_noiseless_quadratic(self):
        target = np.array([3.0, 7.0])
        tuner = make_tuner(theta0=(8.0, 2.0), a=2.0, c=0.3, seed=1)
        theta, _ = minimize(
            tuner, lambda t: float(np.sum((t - target) ** 2)), 300
        )
        assert np.allclose(theta, target, atol=0.5)

    def test_converges_under_noise(self):
        # The defining property of SPSA (§4.2.1): optimization from
        # noise-corrupted measurements only.
        rng = np.random.default_rng(5)
        target = np.array([4.0, 6.0])
        tuner = make_tuner(theta0=(9.0, 1.0), a=2.0, c=0.8, seed=2)
        theta, _ = minimize(
            tuner,
            lambda t: float(np.sum((t - target) ** 2) + rng.normal(0, 1.0)),
            400,
        )
        assert np.allclose(theta, target, atol=1.2)

    def test_respects_box_constrained_minimum(self):
        # Unconstrained minimum at (-5, -5); the box floor is 0.
        tuner = make_tuner(theta0=(5.0, 5.0), seed=3)
        theta, _ = minimize(tuner, lambda t: float(np.sum((t + 5.0) ** 2)), 200)
        assert np.allclose(theta, [0.0, 0.0], atol=0.3)

    def test_deterministic_given_seed(self):
        f = lambda t: float(t @ t)
        a = make_tuner(seed=9)
        b = make_tuner(seed=9)
        minimize(a, f, 20)
        minimize(b, f, 20)
        assert np.allclose(a.theta, b.theta)

    def test_high_dimension_still_two_measurements(self):
        # SPSA's economy is dimension-independent (§4.2.1).
        tuner = make_tuner(
            theta0=[5.0] * 8, dim=8, gains=GainSchedule(a=1.0, c=0.3), seed=4
        )
        _, calls = minimize(tuner, lambda t: float(t @ t), 50)
        assert calls == 100
        assert tuner.k == 50

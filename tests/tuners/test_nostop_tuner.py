"""NoStopTuner's verbs beyond ask/observe: the ones NoStopController
drives for a guarded round (``discard``) and the §5.5 restart
(``restart``)."""

import numpy as np
import pytest

from repro.tuners import make_tuner, tournament_space


def _tuner(seed=0):
    return make_tuner("nostop", tournament_space(), seed=seed)


def _iterate(tuner, objectives=(3.0, 5.0)):
    """One full SPSA iteration: ask θ⁺ and θ⁻, observe both."""
    for y in objectives:
        tuner.observe(tuner.ask(), y)


def test_discard_keeps_k_and_theta_and_advances_rho():
    tuner = _tuner()
    _iterate(tuner)
    k, theta, rho = tuner.spsa.k, tuner.spsa.theta.copy(), tuner.rho(2.0)
    tuner.ask()
    tuner.ask()
    tuner.discard()
    assert tuner.pending is None
    assert tuner.spsa.k == k
    np.testing.assert_array_equal(tuner.spsa.theta, theta)
    assert tuner.rho(2.0) == pytest.approx(rho + 0.1)


def test_restart_returns_to_initial_state_and_continues_the_rng():
    tuner, twin, fresh = _tuner(), _tuner(), _tuner()
    theta0, rho0 = tuner.spsa.theta.copy(), tuner.rho(2.0)
    for t in (tuner, twin):
        for _ in range(3):
            _iterate(t)
    tuner.restart()
    assert tuner.spsa.k == 0
    np.testing.assert_array_equal(tuner.spsa.theta, theta0)
    assert tuner.rho(2.0) == rho0

    # The next Δ is the one the un-restarted twin draws next, not the
    # seed's first draw.
    tuner.ask()
    twin.ask()
    fresh.ask()
    assert tuner.pending["delta"] == twin.pending["delta"]
    assert tuner.pending["delta"] != fresh.pending["delta"]

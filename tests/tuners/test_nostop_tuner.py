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
    k, theta, rho = tuner.k, tuner.theta.copy(), tuner.rho(2.0)
    tuner.ask()
    tuner.ask()
    tuner.discard()
    assert tuner.pending is None
    assert tuner.k == k
    np.testing.assert_array_equal(tuner.theta, theta)
    assert tuner.rho(2.0) == pytest.approx(rho + 0.1)


def test_restart_returns_to_initial_state_and_continues_the_rng():
    tuner, twin, fresh = _tuner(), _tuner(), _tuner()
    theta0, rho0 = tuner.theta.copy(), tuner.rho(2.0)
    for t in (tuner, twin):
        for _ in range(3):
            _iterate(t)
    tuner.restart()
    assert tuner.k == 0
    np.testing.assert_array_equal(tuner.theta, theta0)
    assert tuner.rho(2.0) == rho0

    # The next Δ is the one the un-restarted twin draws next, not the
    # seed's first draw.
    tuner.ask()
    twin.ask()
    fresh.ask()
    assert tuner.pending["delta"] == twin.pending["delta"]
    assert tuner.pending["delta"] != fresh.pending["delta"]


#: A mid-iteration checkpoint (θ⁺ observed, θ⁻ pending) of
#: ``make_tuner("nostop", tournament_space(), seed=11)``, written by the
#: version whose SPSA step lived in a separate optimizer class.  Its
#: layout is the controller checkpoint's v2 ``"tuner"`` entry.
CHECKPOINT_V2 = {
    "spsa": {
        "k": 2,
        "theta": [
            5.307080112821753, 5.307080112821753,
            10.842837321016555, 10.157162678983445,
        ],
        "thetaInitial": [10.5, 10.5, 10.5, 10.5],
        "rngState": {
            "bit_generator": "PCG64",
            "state": {
                "state": 140588235561292132523554878019961914740,
                "inc": 7937318808080196428804369945471644491,
            },
            "has_uint32": 0,
            "uinteger": 3986635987,
        },
    },
    "rho": {"value": 1.2000000000000002},
    "pending": {
        "thetaPlus": [
            3.5683909926417092, 3.5683909926417092,
            9.104148200836512, 11.895851799163488,
        ],
        "thetaMinus": [
            7.0457692330017965, 7.0457692330017965,
            12.581526441196598, 8.418473558803402,
        ],
        "delta": [-1.0, -1.0, -1.0, 1.0],
        "ck": 1.7386891201800434,
        "yPlus": 2.5,
    },
}


def test_restores_a_v2_checkpoint_and_asks_what_it_would_have():
    tuner = _tuner(seed=0)
    tuner.restore(CHECKPOINT_V2)
    assert tuner.checkpoint() == CHECKPOINT_V2
    theta_minus = tuner.ask()
    np.testing.assert_array_equal(
        theta_minus, CHECKPOINT_V2["pending"]["thetaMinus"]
    )
    tuner.observe(theta_minus, 7.0)
    assert tuner.k == 3
    np.testing.assert_array_equal(
        tuner.ask(),
        [2.6999416915812673, 1.0, 7.631657960941949, 13.368342039058051],
    )

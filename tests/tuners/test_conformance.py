"""Protocol conformance for every registered tuner.

The tournament is only fair if every tuner honours the same contract:
in-box proposals, graceful handling of diverged objectives, JSON-safe
checkpoints, and bit-exact resume — a restored tuner must propose the
identical θ sequence the original would have.
"""

import json

import numpy as np
import pytest

from repro.core.pause import EvaluatedConfig
from repro.tuners import (
    clamp_objective,
    make_tuner,
    tournament_space,
    tuner_names,
)
from repro.tuners.base import DIVERGENCE_PENALTY

ALL_TUNERS = tuner_names()


def _space():
    return tournament_space()


def _synthetic(theta):
    """Deterministic finite objective with a unique minimum."""
    return float(np.sum((np.asarray(theta) - 7.0) ** 2)) + 2.0


def _evaluated(theta, objective, iteration):
    interval = 5.0 + float(theta[0])
    proc = min(interval * 0.9, objective / 3.0)
    return EvaluatedConfig(
        theta=tuple(float(v) for v in theta),
        objective=objective,
        end_to_end_delay=interval / 2.0 + proc,
        iteration=iteration,
        batch_interval=interval,
        num_executors=8,
        mean_processing_time=proc,
        stable=proc <= interval * 0.92,
    )


def _drive(tuner, space, steps, start_iteration=1):
    """Ask/observe ``steps`` times; returns the proposed θ sequence."""
    box = space.scaled
    asked = []
    for i in range(start_iteration, start_iteration + steps):
        if tuner.exhausted:
            break
        theta = box.project(tuner.ask())
        y = _synthetic(theta)
        tuner.observe(theta, y, _evaluated(theta, y, i))
        asked.append(theta)
    return asked


def test_registry_lists_the_full_zoo():
    assert ALL_TUNERS == [
        "annealing", "bo", "grid", "nostop", "random", "rl", "safe-online",
    ]


def test_make_tuner_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown tuner"):
        make_tuner("gradient-descent", _space())


def test_clamp_objective():
    assert clamp_objective(3.5) == 3.5
    assert clamp_objective(float("inf")) == DIVERGENCE_PENALTY
    assert clamp_objective(float("nan")) == DIVERGENCE_PENALTY


@pytest.mark.parametrize("name", ALL_TUNERS)
def test_proposals_stay_in_box(name):
    space = _space()
    tuner = make_tuner(name, space, seed=11)
    for theta in _drive(tuner, space, 10):
        assert space.scaled.contains(theta)


@pytest.mark.parametrize("name", ALL_TUNERS)
def test_same_seed_same_trajectory(name):
    space = _space()
    a = _drive(make_tuner(name, space, seed=4), space, 8)
    b = _drive(make_tuner(name, space, seed=4), space, 8)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("name", ALL_TUNERS)
def test_survives_non_finite_objective(name):
    space = _space()
    tuner = make_tuner(name, space, seed=2)
    theta = space.scaled.project(tuner.ask())
    tuner.observe(theta, float("inf"), _evaluated(theta, 1e9, 1))
    # The tuner keeps working afterwards.
    nxt = space.scaled.project(tuner.ask())
    assert np.all(np.isfinite(nxt))


@pytest.mark.parametrize("name", ALL_TUNERS)
def test_checkpoint_is_json_safe(name):
    space = _space()
    tuner = make_tuner(name, space, seed=9)
    _drive(tuner, space, 5)
    snapshot = tuner.checkpoint()
    text = json.dumps(snapshot, sort_keys=True)
    assert json.loads(text) is not None


@pytest.mark.parametrize("name", ALL_TUNERS)
def test_checkpoint_restore_is_bit_exact(name):
    """Kill/resume contract: restore mid-run, and the remaining
    trajectory — and the final checkpoint — match the uninterrupted
    run exactly."""
    space = _space()
    reference = make_tuner(name, space, seed=17)
    _drive(reference, space, 6)
    snapshot = json.loads(json.dumps(reference.checkpoint()))

    resumed = make_tuner(name, space, seed=4242)  # wrong seed on purpose
    resumed.restore(snapshot)

    tail_ref = _drive(reference, space, 7, start_iteration=7)
    tail_res = _drive(resumed, space, 7, start_iteration=7)
    assert len(tail_ref) == len(tail_res)
    for x, y in zip(tail_ref, tail_res):
        np.testing.assert_array_equal(x, y)
    assert json.dumps(reference.checkpoint(), sort_keys=True) == json.dumps(
        resumed.checkpoint(), sort_keys=True
    )


def test_grid_tuner_exhausts():
    space = _space()
    tuner = make_tuner("grid", space, seed=0)
    total = 3 ** space.scaled.dim  # 3 points per axis in four dimensions
    asked = _drive(tuner, space, total + 10)
    assert len(asked) == total
    assert tuner.exhausted
    with pytest.raises(RuntimeError, match="exhausted"):
        tuner.ask()


def test_nostop_tuner_rho_schedule_ramps_to_cap():
    space = _space()
    tuner = make_tuner("nostop", space, seed=0)
    assert tuner.rho(2.0) == 1.0
    _drive(tuner, space, 12)  # six full SPSA iterations
    assert tuner.rho(2.0) == pytest.approx(1.6)
    assert tuner.rho(1.2) == 1.2  # an external cap still binds


def test_non_spsa_tuners_measure_at_cap():
    space = _space()
    for name in ("bo", "random", "grid", "annealing", "rl", "safe-online"):
        assert make_tuner(name, space, seed=0).rho(2.0) == 2.0


def test_safe_online_rejects_unsafe_candidates():
    space = _space()
    tuner = make_tuner("safe-online", space, seed=0)
    box = space.scaled
    start = box.project(tuner.ask())
    safe_eval = _evaluated(start, 10.0, 1)
    tuner.observe(start, 10.0, safe_eval)
    assert tuner.incumbent_safe

    radius_before = tuner.radius
    candidate = box.project(tuner.ask())
    unsafe = EvaluatedConfig(
        theta=tuple(candidate), objective=1.0, end_to_end_delay=500.0,
        iteration=2, batch_interval=5.0, num_executors=8,
        mean_processing_time=20.0, stable=False,
    )
    tuner.observe(candidate, 1.0, unsafe)  # better G but unsafe: reject
    np.testing.assert_array_equal(tuner.incumbent, start)
    assert tuner.rejected == 1
    assert tuner.radius < radius_before


def test_safe_online_judges_safety_at_the_run_slo():
    """A stable probe whose delay is between the run's SLO and the 30 s
    default is unsafe for a run with a 20 s SLO."""
    space = _space()
    box = space.scaled

    def probe(tuner, theta, delay):
        tuner.observe(theta, 10.0, EvaluatedConfig(
            theta=tuple(theta), objective=10.0, end_to_end_delay=delay,
            iteration=1, batch_interval=10.0, num_executors=8,
            mean_processing_time=5.0, stable=True,
        ))

    for slo, safe in ((20.0, False), (30.0, True)):
        tuner = make_tuner("safe-online", space, seed=0, slo_delay=slo)
        assert tuner.slo_delay == slo
        probe(tuner, box.project(tuner.ask()), 25.0)
        assert tuner.incumbent_safe is safe


def test_rl_tuner_learns_into_q_table():
    space = _space()
    tuner = make_tuner("rl", space, seed=0)
    _drive(tuner, space, 10)
    assert tuner.steps == 10
    assert tuner.q  # states visited
    assert all(len(row) == 2 * space.scaled.dim + 1
               for row in tuner.q.values())
    # ε decays monotonically toward the floor.
    assert tuner._current_epsilon() < 0.9

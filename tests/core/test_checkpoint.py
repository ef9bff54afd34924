"""Controller checkpoint/restore: bit-exact resume, audit, JSON round trip."""

import json

import numpy as np
import pytest

from repro.core.nostop import CHECKPOINT_VERSION
from repro.experiments.common import build_experiment, make_controller
from repro.obs.tracer import Telemetry

WORKLOAD = "logistic_regression"
SEED = 3


def _round_signature(record):
    """Everything a round decided, as a comparable JSON string."""
    return json.dumps({
        "round": record.round_index,
        "k": record.k,
        "phase": record.phase,
        "simTime": record.sim_time,
        "rho": record.rho,
        "theta": [float(x) for x in record.theta_scaled],
        "interval": record.batch_interval,
        "executors": record.num_executors,
        "guarded": record.guarded,
    }, sort_keys=True)


def _fresh(telemetry=None, seed=SEED):
    setup = build_experiment(WORKLOAD, seed=seed, telemetry=telemetry)
    controller = make_controller(setup, seed=seed)
    return setup, controller


def test_checkpoint_roundtrips_through_json():
    _, controller = _fresh()
    for _ in range(4):
        controller.run_round()
    state = controller.checkpoint()
    assert state["version"] == CHECKPOINT_VERSION
    # JSON-safe: the whole point of a checkpoint is surviving a process.
    clone = json.loads(json.dumps(state))
    assert clone["tuner"]["spsa"]["k"] == state["tuner"]["spsa"]["k"]
    assert clone["tuner"]["spsa"]["theta"] == state["tuner"]["spsa"]["theta"]


def test_restore_resumes_bit_exactly():
    """A controller handed over mid-run continues exactly the trajectory
    an uninterrupted controller produces — same rounds, same thetas,
    same RNG draws, same pause decisions."""
    split, total = 5, 12

    setup_a, ctrl_a = _fresh()
    baseline = [ctrl_a.run_round() for _ in range(total)]

    setup_b, ctrl_b = _fresh()
    head = [ctrl_b.run_round() for _ in range(split)]
    state = json.loads(json.dumps(ctrl_b.checkpoint()))
    # Hand over to a brand-new controller object on the same live system.
    successor = make_controller(setup_b, seed=SEED)
    successor.restore(state)
    tail = [successor.run_round() for _ in range(total - split)]

    resumed = head + tail
    assert [_round_signature(r) for r in resumed] == [
        _round_signature(r) for r in baseline
    ]


def test_restore_rejects_unknown_version():
    _, controller = _fresh()
    for version in (1, 999):  # 1: spsa/rho at the top level, before "tuner"
        state = controller.checkpoint()
        state["version"] = version
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            controller.restore(state)


def test_restore_records_audit_firing():
    telemetry = Telemetry(enabled=True)
    setup, controller = _fresh(telemetry=telemetry)
    for _ in range(3):
        controller.run_round()
    state = controller.checkpoint()
    successor = make_controller(setup, seed=SEED)
    successor.restore(state)
    restores = [f for f in telemetry.audit.firings if f.kind == "restore"]
    assert len(restores) == 1
    assert f"k={state['tuner']['spsa']['k']}" in restores[0].detail


def test_restore_checkpoint_counters_and_bookkeeping():
    _, controller = _fresh()
    for _ in range(6):
        controller.run_round()
    state = controller.checkpoint()

    setup2, _ = _fresh()
    successor = make_controller(setup2, seed=SEED)
    successor.restore(state)
    assert successor.tuner.k == state["tuner"]["spsa"]["k"]
    assert successor.paused == state["paused"]
    assert successor.collector.total_skipped == state["collector"]["totalSkipped"]
    assert successor.rate_monitor.resets_triggered == (
        state["rateMonitor"]["resetsTriggered"]
    )
    assert np.allclose(
        successor.tuner.theta, np.asarray(state["tuner"]["spsa"]["theta"])
    )


def test_rng_state_survives_checkpoint():
    _, controller = _fresh()
    for _ in range(2):
        controller.run_round()
    state = controller.checkpoint()
    # Two restored controllers draw identical perturbation sequences.
    setup_a, _ = _fresh()
    a = make_controller(setup_a, seed=SEED)
    a.restore(json.loads(json.dumps(state)))
    setup_b, _ = _fresh()
    b = make_controller(setup_b, seed=SEED)
    b.restore(json.loads(json.dumps(state)))
    draws_a = a.tuner.rng.random(8).tolist()
    draws_b = b.tuner.rng.random(8).tolist()
    assert draws_a == draws_b


def test_reapply_pushes_configuration_back():
    """``reapply=True`` re-submits the checkpointed configuration — the
    restarted-driver semantics — so the system's live config matches the
    tuner's belief even on a cold system."""
    _, controller = _fresh()
    for _ in range(5):
        controller.run_round()
    state = controller.checkpoint()

    setup2, _ = _fresh(seed=SEED)
    successor = make_controller(setup2, seed=SEED)
    changes_before = setup2.system.config_changes
    successor.restore(json.loads(json.dumps(state)), reapply=True)
    assert setup2.system.config_changes == changes_before + 1

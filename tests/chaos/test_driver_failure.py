"""DriverFailure injector and the cold-vs-checkpoint recovery scenario."""

import json

import numpy as np
import pytest

from repro.chaos import (
    AtTime,
    ChaosEngine,
    DriverFailure,
    FaultEvent,
    FaultSchedule,
)
from repro.experiments.common import build_experiment
from repro.experiments.recovery import (
    DriverHost,
    RecoveryResult,
    run_recovery_comparison,
    run_recovery_scenario,
)

WORKLOAD = "logistic_regression"
SEED = 3
PAUSE_N = 4
KILL_TIME = 4000.0
OUTAGE = 60.0
ROUNDS = 30


def test_driver_host_validates_mode():
    with pytest.raises(ValueError, match="mode"):
        DriverHost(mode="warm")


def test_driver_failure_stalls_receiver_and_notifies_host():
    setup = build_experiment(WORKLOAD, seed=SEED)
    host = DriverHost(mode="cold")
    schedule = FaultSchedule.of(
        FaultEvent(
            name="driver_failure",
            trigger=AtTime(50.0),
            injector=DriverFailure().bind(host),
            duration=30.0,
        )
    )
    engine = ChaosEngine(setup.context, schedule, seed=0)
    setup.context.advance_batches(12)
    engine.finish()

    assert host.killed_at and host.recovered_at
    assert host.recovered_at[0] > host.killed_at[0]
    assert not host.down
    assert host.needs_restart
    [record] = engine.records
    assert record.kind == "DriverFailure"
    assert "driver killed" in record.detail
    assert record.recovered_at is not None


def test_driver_failure_without_host_is_pure_stall():
    setup = build_experiment(WORKLOAD, seed=SEED)
    schedule = FaultSchedule.of(
        FaultEvent(
            name="driver_failure",
            trigger=AtTime(50.0),
            injector=DriverFailure(),
            duration=30.0,
        )
    )
    engine = ChaosEngine(setup.context, schedule, seed=0)
    setup.context.advance_batches(12)
    engine.finish()
    [record] = engine.records
    assert record.recovered_at is not None  # composes host-free


@pytest.fixture(scope="module")
def comparison():
    return run_recovery_comparison(
        WORKLOAD, rounds=ROUNDS, seed=SEED,
        kill_time=KILL_TIME, outage=OUTAGE, pause_n=PAUSE_N,
    )


def test_recovery_scenario_reports_driver_failure(comparison):
    cold: RecoveryResult = comparison["cold"]
    assert cold.restarts == 1
    assert cold.paused_before_kill  # the kill landed post-convergence
    assert cold.chaos.scenario == "driver_failure[cold]"
    [outcome] = cold.chaos.events
    assert outcome.record.kind == "DriverFailure"
    assert outcome.record.recovered_at is not None
    # Deterministic serialization, like every other chaos report.
    json.loads(cold.chaos.to_json())


def test_checkpoint_restores_exact_spsa_iterate(comparison):
    ckpt: RecoveryResult = comparison["checkpoint"]
    restores = [
        f for f in ckpt.controller.audit.firings if f.kind == "restore"
    ]
    assert len(restores) == 1
    # The restored iterate is the one checkpointed at the last completed
    # round before the kill — the cold run's controller instead restarts
    # at k=0 (visible as a fresh round numbering after its restart).
    pre_kill = [r for r in ckpt.records if r.sim_time < ckpt.killed_at[0]]
    assert pre_kill, "kill fired before any completed round"
    assert f"k={pre_kill[-1].k}" in restores[0].detail


def test_checkpoint_reconverges_faster_than_cold_restart(comparison):
    cold: RecoveryResult = comparison["cold"]
    ckpt: RecoveryResult = comparison["checkpoint"]
    assert cold.batches_to_repause is not None
    assert ckpt.batches_to_repause is not None
    assert ckpt.batches_to_repause < cold.batches_to_repause
    assert comparison["batches_saved"] > 0
    assert ckpt.rounds_to_repause < cold.rounds_to_repause


def test_recovery_scenario_deterministic(comparison):
    # A rerun of the shared checkpoint run, through the kill and the
    # restore, repeats it exactly.
    a = comparison["checkpoint"]
    b = run_recovery_scenario(
        WORKLOAD, mode="checkpoint", rounds=ROUNDS, seed=SEED,
        kill_time=KILL_TIME, outage=OUTAGE, pause_n=PAUSE_N,
    )
    assert a.killed_at and a.killed_at == b.killed_at
    assert a.to_dict() == b.to_dict()
    thetas_a = [np.asarray(r.theta_scaled).tolist() for r in a.records]
    thetas_b = [np.asarray(r.theta_scaled).tolist() for r in b.records]
    assert thetas_a == thetas_b

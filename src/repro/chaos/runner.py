"""Scenario runner: a NoStop experiment under a fault schedule.

:func:`run_chaos_scenario` is the one-call entry point used by the
chaos example, the recovery benchmark, and the chaos test-suite: wire a
:class:`~repro.chaos.engine.ChaosEngine` into an assembled experiment,
run the (optionally hardened) controller, and distill the run into a
deterministic :class:`~repro.chaos.report.ChaosReport`.

:func:`standard_chaos_schedule` is the scripted acceptance scenario —
an executor crash at t=120 s whose slot stays hostage for 60 s (so a
full-pool configuration application *fails* mid-outage), then a broker
stall at t=300 s whose backlog bursts back 30 s later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.nostop import NoStopController, NoStopReport, RoundRecord
from repro.core.objective import penalized_objective
from repro.experiments.common import ExperimentSetup, make_controller

from .engine import ChaosEngine
from .events import AtTime, FaultEvent, FaultSchedule
from .injectors import BrokerOutage, ExecutorCrash
from .report import ChaosReport, build_event_outcomes


def standard_chaos_schedule() -> FaultSchedule:
    """The scripted two-fault scenario used across example/benchmark/tests."""
    return FaultSchedule.of(
        FaultEvent(
            name="executor-crash",
            trigger=AtTime(120.0),
            injector=ExecutorCrash(count=1, hold_slot=True),
            duration=60.0,
        ),
        FaultEvent(
            name="broker-stall",
            trigger=AtTime(300.0),
            injector=BrokerOutage(),
            duration=30.0,
        ),
    )


@dataclass
class ChaosRunResult:
    """Everything one chaos scenario run produced."""

    report: ChaosReport
    nostop: NoStopReport
    engine: ChaosEngine
    controller: NoStopController


def _objective_samples(
    records: List[RoundRecord], rho_cap: float
) -> List[tuple]:
    """(time, objective) pairs at probe granularity.

    Each SPSA probe and each monitoring window yields one sample stamped
    with the time its measurement closed, so a fault firing mid-round
    still leaves the probes completed *before* it on the pre-fault side.
    Corrupted probes and guarded monitor windows are excluded — they are
    measurements of faults, not of configurations.
    """
    samples: List[tuple] = []
    for r in records:
        if r.phase == "optimize":
            for probe in (r.plus_result, r.minus_result):
                if probe is None or probe.corrupted:
                    continue
                obj = penalized_objective(
                    probe.batch_interval,
                    probe.measurement.mean_processing_time,
                    rho_cap,
                )
                samples.append((probe.measured_at, obj))
        elif r.phase == "paused" and r.monitor is not None and not r.guarded:
            obj = penalized_objective(
                r.batch_interval, r.monitor.mean_processing_time, rho_cap
            )
            samples.append((r.sim_time, obj))
    return samples


def _best_objective(samples: List[tuple]) -> Optional[float]:
    return min((obj for _, obj in samples), default=None)


def run_chaos_scenario(
    setup: ExperimentSetup,
    schedule: FaultSchedule,
    rounds: int = 40,
    seed: int = 0,
    harden: bool = True,
    scenario: str = "chaos",
) -> ChaosRunResult:
    """Run NoStop on ``setup`` while ``schedule`` injects faults.

    ``harden`` picks the controller profile
    (:func:`~repro.experiments.common.make_controller`): ``True`` is the
    full noise-tolerance stack; ``False`` runs the plain paper controller
    against the same faults, which is the ablation arm that shows
    poisoned SPSA steps actually being taken.
    """
    engine = ChaosEngine(setup.context, schedule, seed=seed)
    setup.system.health_source = engine
    controller = make_controller(setup, seed=seed, harden=harden)
    nostop = controller.run(rounds)
    engine.finish()

    batches = setup.context.listener.metrics.batches
    outcomes = build_event_outcomes(engine.records, batches)

    samples = _objective_samples(
        nostop.rounds, controller.rho_cap
    )
    first_fire = engine.first_fire_time()
    last_recovery = engine.last_recovery_time()
    pre = post = None
    if first_fire is not None:
        pre = _best_objective([s for s in samples if s[0] < first_fire])
    if last_recovery is not None:
        post = _best_objective([s for s in samples if s[0] >= last_recovery])

    report = ChaosReport(
        scenario=scenario,
        seed=seed,
        hardened=harden,
        events=outcomes,
        poisoned_steps_avoided=nostop.poisoned_steps_avoided,
        poisoned_steps_taken=nostop.poisoned_steps_taken,
        corrupted_retries=nostop.corrupted_retries,
        outlier_batches_rejected=controller.collector.outliers_rejected,
        failed_applies=setup.system.failed_applies,
        rate_resets=controller.rate_monitor.resets_triggered,
        executor_failures=setup.context.resource_manager.executor_failures,
        pre_fault_objective=pre,
        post_fault_objective=post,
        batches_processed=len(batches),
        sim_duration=setup.context.time,
    )
    return ChaosRunResult(
        report=report, nostop=nostop, engine=engine, controller=controller
    )

"""Driver-failure recovery: §5.5 cold restart vs checkpointed restore.

The paper's restart rule is stateless — any driver failure costs NoStop
its entire optimization state, and the tuner starts over from the
center of the configuration space.  This experiment quantifies that
cost.  A chaos :class:`~repro.chaos.injectors.DriverFailure` event
kills the controller mid-run for a scheduled outage window; when the
driver comes back, the rebuilt controller either

* **cold** — the §5.5 baseline: a fresh controller, k = 0, empty pause
  history, θ at the center; or
* **checkpoint** — restored from the last per-round
  :meth:`~repro.core.nostop.NoStopController.checkpoint`, resuming from
  the exact SPSA iterate, gain position, ρ, evaluation ranking, and
  rate window it died with (audit-verified via the ``"restore"``
  firing).

The headline metric is **re-convergence effort**: batches (and rounds)
from driver recovery until the controller is paused at an optimum
again.  A checkpointed controller that was already paused typically
re-pauses within one monitoring round; a cold controller pays the full
§5.3.5 search again.  ``run_recovery_comparison`` runs both modes on
identically seeded deployments and reports the gap
(``BENCH_recovery.json`` hard-asserts it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.chaos.engine import ChaosEngine
from repro.chaos.events import AtTime, FaultEvent, FaultSchedule
from repro.chaos.injectors import DriverFailure
from repro.chaos.report import ChaosReport, build_event_outcomes
from repro.core.nostop import NoStopController, RoundRecord
from repro.obs.tracer import Telemetry

from .common import ExperimentSetup, build_experiment, make_controller

#: Safety valve: idle boundaries advanced waiting for driver recovery.
_MAX_IDLE_BATCHES = 500


@dataclass
class DriverHost:
    """The 'machine' the driver runs on, as the chaos injector sees it.

    :class:`~repro.chaos.injectors.DriverFailure` calls
    :meth:`on_driver_kill` / :meth:`on_driver_recover` at the scheduled
    window edges; the scenario loop reads the flags to know when the
    controller is dead and when it must be rebuilt.  In checkpoint mode
    the host also carries the last completed-round checkpoint — the
    durable state a real deployment would have fsynced elsewhere.
    """

    mode: str = "cold"
    """``"cold"`` (§5.5 baseline) or ``"checkpoint"``."""
    down: bool = False
    needs_restart: bool = False
    killed_at: List[float] = field(default_factory=list)
    recovered_at: List[float] = field(default_factory=list)
    checkpoint: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.mode not in ("cold", "checkpoint"):
            raise ValueError(f"mode must be 'cold' or 'checkpoint', got {self.mode!r}")

    def on_driver_kill(self, now: float) -> None:
        self.down = True
        self.killed_at.append(float(now))

    def on_driver_recover(self, now: float) -> None:
        self.down = False
        self.needs_restart = True
        self.recovered_at.append(float(now))


@dataclass
class RecoveryResult:
    """Outcome of one driver-failure run in one recovery mode."""

    mode: str
    workload: str
    seed: int
    rounds: int
    records: List[RoundRecord]
    restarts: int
    killed_at: List[float]
    recovered_at: List[float]
    paused_before_kill: bool
    """Whether the tuner had converged (paused) before the driver died —
    the regime the checkpoint-vs-cold comparison is defined over."""
    rounds_to_repause: Optional[int]
    """Control rounds after recovery until paused again (None = never)."""
    batches_to_repause: Optional[int]
    """Listener batches after recovery until paused again (the headline
    re-convergence metric; None = never re-paused)."""
    sim_time_to_repause: Optional[float]
    final_paused: bool
    chaos: ChaosReport
    controller: NoStopController
    setup: ExperimentSetup

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "workload": self.workload,
            "seed": self.seed,
            "rounds": self.rounds,
            "restarts": self.restarts,
            "killedAt": self.killed_at,
            "recoveredAt": self.recovered_at,
            "pausedBeforeKill": self.paused_before_kill,
            "roundsToRepause": self.rounds_to_repause,
            "batchesToRepause": self.batches_to_repause,
            "simTimeToRepause": self.sim_time_to_repause,
            "finalPaused": self.final_paused,
        }


def driver_failure_schedule(
    kill_time: float, outage: float = 60.0, host: Optional[DriverHost] = None
) -> FaultSchedule:
    """One scheduled driver kill/recover window bound to ``host``."""
    injector = DriverFailure()
    if host is not None:
        injector.bind(host)
    return FaultSchedule.of(
        FaultEvent(
            name="driver_failure",
            trigger=AtTime(kill_time),
            injector=injector,
            duration=outage,
        )
    )


def run_recovery_scenario(
    workload: str = "logistic_regression",
    mode: str = "cold",
    rounds: int = 30,
    seed: int = 3,
    kill_time: float = 4000.0,
    outage: float = 60.0,
    pause_n: int = 10,
) -> RecoveryResult:
    """One driver-failure run: optimize, die at ``kill_time``, recover.

    The loop plays the driver's lifecycle: control rounds run while the
    driver is up; while it is down the cluster merely ages (the stalled
    receiver accumulates backlog); at recovery the controller is rebuilt
    according to ``mode``.  A round in flight when the kill lands is
    discarded — its in-memory state died with the driver.  In
    checkpoint mode every *completed* round checkpoints, mirroring a
    driver that fsyncs tuner state at round boundaries.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    host = DriverHost(mode=mode)
    # Audit firings are part of this experiment's contract (the rebuilt
    # controller's "restore" firing is how recovery is verified), so the
    # telemetry bundle is always on regardless of REPRO_TRACE.
    setup = build_experiment(workload, seed=seed, telemetry=Telemetry(enabled=True))
    schedule = driver_failure_schedule(kill_time, outage=outage, host=host)
    engine = ChaosEngine(setup.context, schedule)

    controller = make_controller(setup, seed=seed, pause_n=pause_n)
    records: List[RoundRecord] = []
    restarts = 0
    paused_before_kill = False
    batches_at_restart: Optional[int] = None
    time_at_restart: Optional[float] = None
    rounds_after_restart = 0
    rounds_to_repause: Optional[int] = None
    batches_to_repause: Optional[int] = None
    sim_time_to_repause: Optional[float] = None

    rounds_done = 0
    idle = 0
    while rounds_done < rounds:
        if host.down:
            # The driver is dead: nothing schedules batches, but simulated
            # time must still pass for the recovery boundary to arrive.
            idle += 1
            if idle > _MAX_IDLE_BATCHES:
                raise RuntimeError("driver outage never recovered")
            setup.context.advance_batches(1)
            continue
        if host.needs_restart:
            host.needs_restart = False
            restarts += 1
            controller = make_controller(setup, seed=seed, pause_n=pause_n)
            if mode == "checkpoint" and host.checkpoint is not None:
                controller.restore(host.checkpoint, reapply=True)
            batches_at_restart = len(setup.context.listener.metrics)
            time_at_restart = setup.system.time
            rounds_after_restart = 0
        record = controller.run_round()
        if host.down:
            # Killed mid-round: the round's in-memory outcome died with
            # the driver process.  (The checkpoint, if any, predates it.)
            continue
        rounds_done += 1
        records.append(record)
        if not host.killed_at:
            paused_before_kill = controller.paused or paused_before_kill
        if restarts:
            rounds_after_restart += 1
            if rounds_to_repause is None and controller.paused:
                rounds_to_repause = rounds_after_restart
                batches_to_repause = (
                    len(setup.context.listener.metrics) - (batches_at_restart or 0)
                )
                sim_time_to_repause = setup.system.time - (time_at_restart or 0.0)
        if mode == "checkpoint":
            host.checkpoint = controller.checkpoint()
    engine.finish()

    chaos = ChaosReport(
        scenario=f"driver_failure[{mode}]",
        seed=seed,
        hardened=controller.harden,
        events=build_event_outcomes(
            engine.records, setup.context.listener.metrics.batches
        ),
        poisoned_steps_avoided=controller.poisoned_steps_avoided,
        poisoned_steps_taken=controller.poisoned_steps_taken,
        corrupted_retries=controller.corrupted_retries,
        outlier_batches_rejected=controller.collector.outliers_rejected,
        failed_applies=setup.system.failed_applies,
        rate_resets=controller.rate_monitor.resets_triggered,
        executor_failures=setup.context.resource_manager.executor_failures,
        batches_processed=len(setup.context.listener.metrics),
        sim_duration=setup.context.time,
    )
    return RecoveryResult(
        mode=mode,
        workload=workload,
        seed=seed,
        rounds=rounds,
        records=records,
        restarts=restarts,
        killed_at=list(host.killed_at),
        recovered_at=list(host.recovered_at),
        paused_before_kill=paused_before_kill,
        rounds_to_repause=rounds_to_repause,
        batches_to_repause=batches_to_repause,
        sim_time_to_repause=sim_time_to_repause,
        final_paused=controller.paused,
        chaos=chaos,
        controller=controller,
        setup=setup,
    )


def run_recovery_comparison(
    workload: str = "logistic_regression",
    rounds: int = 30,
    seed: int = 3,
    kill_time: float = 4000.0,
    outage: float = 60.0,
    pause_n: int = 10,
) -> Dict[str, Any]:
    """Cold restart vs checkpointed restore on identical deployments.

    Both runs share workload, seed, kill schedule, and round budget;
    they diverge only in what the rebuilt driver knows.  Returns both
    results plus the re-convergence gap.
    """
    cold = run_recovery_scenario(
        workload, mode="cold", rounds=rounds, seed=seed,
        kill_time=kill_time, outage=outage, pause_n=pause_n,
    )
    ckpt = run_recovery_scenario(
        workload, mode="checkpoint", rounds=rounds, seed=seed,
        kill_time=kill_time, outage=outage, pause_n=pause_n,
    )
    gap: Optional[int] = None
    if cold.batches_to_repause is not None and ckpt.batches_to_repause is not None:
        gap = cold.batches_to_repause - ckpt.batches_to_repause
    return {
        "cold": cold,
        "checkpoint": ckpt,
        "batches_saved": gap,
        "summary": {
            "cold": cold.to_dict(),
            "checkpoint": ckpt.to_dict(),
            "batchesSaved": gap,
        },
    }

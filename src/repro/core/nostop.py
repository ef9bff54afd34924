"""The NoStop controller (Algorithm 1 + the §5 operational rules).

Ties together every piece of the scheme:

* the :class:`~repro.tuners.adapters.NoStopTuner`, which owns the SPSA
  iterate in min–max-scaled configuration space (§5.1–§5.2), its RNG and
  the ρ penalty schedule (Eq. 3),
* the :class:`~repro.core.adjust.AdjustFunction` performing live
  perturbed measurements (Algorithm 2),
* the impeded-progress :class:`~repro.core.pause.PauseRule` (§5.3.5),
* the additive-increase :class:`~repro.core.metrics_collector.MetricsCollector`
  window (§5.4),
* the :class:`~repro.core.rate_monitor.RateMonitor` reset trigger (§5.5).

The controller is the package's one optimizer driving loop.  Each call
to :meth:`NoStopController.run_round` performs one control round — an
SPSA iteration (two live configuration changes) while optimizing, or one
monitoring window while paused at the best known configuration.  The
run history carries everything needed to draw the paper's Fig. 6
evolution plots.  :meth:`NoStopController.run_until_pause` is the tuner
tournament's policy over the same probe step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import catalog
from repro.obs.audit import SPSADecision, clipped_axes
from repro.obs.tracer import NOOP_TELEMETRY, Telemetry
from repro.tuners.adapters import NoStopTuner
from repro.tuners.base import Tuner

from .adjust import (
    AdjustFunction,
    AdjustResult,
    ControlledSystem,
    apply_theta,
    evaluate_config,
    theta_to_configuration,
)
from .bounds import MinMaxScaler
from .gains import GainSchedule
from .metrics_collector import Measurement, MetricsCollector
from .objective import RhoSchedule, penalized_objective
from .pause import EvaluatedConfig, PauseRule, steady_state_delay
from .rate_monitor import RateMonitor

#: Format version stamped into every :meth:`NoStopController.checkpoint`.
#: Version 2 holds the SPSA and ρ state under ``"tuner"``.
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class RoundRecord:
    """One control round of NoStop (optimization, monitoring, or reset)."""

    round_index: int
    k: int
    phase: str
    """``"optimize"``, ``"paused"``, or ``"reset"``."""
    sim_time: float
    rho: float
    theta_scaled: np.ndarray
    """Current estimate x after this round (scaled space)."""
    batch_interval: float
    num_executors: int
    """Physical configuration corresponding to ``theta_scaled``."""
    plus_result: Optional[AdjustResult] = None
    minus_result: Optional[AdjustResult] = None
    monitor: Optional[Measurement] = None
    guarded: bool = False
    """True when the round's SPSA update was skipped because a probe was
    corrupted (failed apply or tainted window) — a poisoned step avoided."""

    @property
    def mean_delay(self) -> Optional[float]:
        """Representative end-to-end delay observed this round."""
        if self.monitor is not None:
            return self.monitor.mean_end_to_end_delay
        values = [
            r.measurement.mean_end_to_end_delay
            for r in (self.plus_result, self.minus_result)
            if r is not None
        ]
        return sum(values) / len(values) if values else None

    @property
    def mean_processing_time(self) -> Optional[float]:
        if self.monitor is not None:
            return self.monitor.mean_processing_time
        values = [
            r.measurement.mean_processing_time
            for r in (self.plus_result, self.minus_result)
            if r is not None
        ]
        return sum(values) / len(values) if values else None


@dataclass
class NoStopReport:
    """Outcome of a NoStop run."""

    rounds: List[RoundRecord] = field(default_factory=list)
    resets: int = 0
    first_pause_round: Optional[int] = None
    first_pause_time: Optional[float] = None
    adjust_calls_to_pause: Optional[int] = None
    config_changes: int = 0
    final_interval: float = 0.0
    final_executors: int = 0
    best: Optional[EvaluatedConfig] = None
    poisoned_steps_avoided: int = 0
    """SPSA updates skipped because a probe was corrupted (guard on)."""
    poisoned_steps_taken: int = 0
    """SPSA updates that consumed a corrupted probe (guard off)."""
    corrupted_retries: int = 0
    """Probes re-measured after a corrupted first attempt."""

    @property
    def search_time(self) -> Optional[float]:
        """Simulated seconds from start to first pause (Fig. 8 metric)."""
        return self.first_pause_time

    def optimization_rounds(self) -> List[RoundRecord]:
        return [r for r in self.rounds if r.phase == "optimize"]

    def paused_rounds(self) -> List[RoundRecord]:
        return [r for r in self.rounds if r.phase == "paused"]


class NoStopController:
    """Online configuration optimizer for a controlled streaming system.

    The optimizer itself is :attr:`tuner` — by default the paper's SPSA
    (:class:`~repro.tuners.adapters.NoStopTuner`); the controller keeps
    the operational rules around it: probe retry and the poisoned-step
    guard, pause and monitoring rounds, the §5.5 reset,
    :meth:`confirm_best` and checkpointing.  :meth:`run_round` needs the
    SPSA tuner (its ask pair, ``discard`` and ``restart``);
    :meth:`run_until_pause` drives any tuner.
    """

    #: A paused configuration resumes optimizing once its processing
    #: time exceeds the interval by this factor.
    STABILITY_SLACK = 1.05
    #: Re-measurements :meth:`confirm_best` may spend on one run.
    MAX_CONFIRMATIONS = 4

    def __init__(
        self,
        system: ControlledSystem,
        scaler: MinMaxScaler,
        gains: Optional[GainSchedule] = None,
        pause_rule: Optional[PauseRule] = None,
        rate_monitor: Optional[RateMonitor] = None,
        collector: Optional[MetricsCollector] = None,
        seed: int = 0,
        harden: bool = True,
        telemetry: Optional[Telemetry] = None,
        tuner: Optional[Tuner] = None,
    ) -> None:
        self.system = system
        self.scaler = scaler
        self.collector = collector or MetricsCollector()
        self.adjust = AdjustFunction(system, scaler, self.collector)
        #: ``seed`` and ``gains`` configure the default tuner only.
        self.tuner = (
            tuner if tuner is not None
            else NoStopTuner(scaler, seed=seed, gains=gains)
        )
        self.pause_rule = pause_rule or PauseRule()
        self.rate_monitor = rate_monitor or RateMonitor()
        #: Fault-tolerant adjust loop: retry corrupted probes once and
        #: skip SPSA updates that would consume a corrupted measurement.
        #: Has no effect while the substrate behaves (corruption flags
        #: only rise during failed applies / tainted windows).
        self.harden = harden
        self.poisoned_steps_avoided = 0
        self.poisoned_steps_taken = 0
        self.corrupted_retries = 0

        self.telemetry = telemetry or NOOP_TELEMETRY
        self.audit = self.telemetry.audit
        registry = self.telemetry.metrics
        self._m_rounds = catalog.instrument(
            registry, "repro_nostop_rounds_total"
        )
        self._m_guarded = catalog.instrument(
            registry, "repro_nostop_guarded_rounds_total"
        )
        self._m_resets = catalog.instrument(
            registry, "repro_nostop_resets_total"
        )

        self.paused = False
        self._rounds_run = 0
        self._start_time = system.time
        self.report = NoStopReport()

    # -- helpers ------------------------------------------------------------

    @property
    def rho_cap(self) -> float:
        """The ρ every evaluation is ranked and confirmed at: the cap of
        the SPSA tuner's schedule, else of the default schedule."""
        if isinstance(self.tuner, NoStopTuner):
            return self.tuner.schedule.cap
        return RhoSchedule.cap

    def _record(self, phase: str, theta: np.ndarray, **fields) -> RoundRecord:
        """This round's record, at the configuration ``theta`` (extra axes
        of a multi-parameter space are dropped)."""
        interval, executors = theta_to_configuration(theta, self.scaler)[:2]
        return RoundRecord(
            round_index=self._rounds_run,
            k=self.tuner.k,
            phase=phase,
            sim_time=self.system.time,
            rho=self.tuner.rho(self.rho_cap),
            theta_scaled=np.array(theta, dtype=float),
            batch_interval=interval,
            num_executors=executors,
            **fields,
        )

    def _note_trace_interest(self, kind: str) -> None:
        """Mark the batches around an audit-rule firing interesting.

        The flight recorder's tail retention keeps every trace that
        overlaps the window, so the batches that triggered — and the
        batches that absorbed — a reset/pause/resume decision are always
        available for critical-path analysis, regardless of sampling.
        """
        interval = theta_to_configuration(self.tuner.theta, self.scaler)[0]
        t = self.system.time
        self.telemetry.tracer.note_interest(t - interval, t + interval, kind)

    def _observe_rate(self) -> None:
        self.rate_monitor.observe(self.system.observed_input_rate())

    def _rank(
        self, result: AdjustResult, theta: np.ndarray, iteration: int
    ) -> EvaluatedConfig:
        """Record one measurement in the pause rule's ranking history."""
        evaluated = evaluate_config(
            result, theta, iteration, rho_cap=self.rho_cap
        )
        self.pause_rule.record(evaluated)
        return evaluated

    def _record_decision(
        self,
        theta_before: np.ndarray,
        theta_plus: np.ndarray,
        theta_minus: np.ndarray,
        pending: Dict[str, Any],
        rho: float,
        plus: AdjustResult,
        minus: AdjustResult,
        guarded: bool,
    ) -> None:
        """Explain this round's SPSA arithmetic in the audit trail.

        ``pending`` is the tuner's asked pair (Δ, c_k) and ``rho`` the
        penalty the probes were measured at."""
        if not self.audit.enabled:
            return
        delta = np.asarray(pending["delta"], dtype=float)
        c_k = pending["ck"]
        probe_clipped = tuple(
            p or m
            for p, m in zip(
                clipped_axes(theta_before + c_k * delta, theta_plus),
                clipped_axes(theta_before - c_k * delta, theta_minus),
            )
        )
        if guarded:
            # No optimizer step was taken, so record the gain that *would*
            # have scaled it and leave the gradient unset.
            a_k = self.tuner.gains.a_k(self.tuner.k + 1)
            gradient = None
            theta_next = tuple(float(v) for v in theta_before)
            step_clipped = tuple(False for _ in theta_before)
        else:
            it = self.tuner.history[-1]
            a_k = it.a_k
            gradient = tuple(float(v) for v in it.gradient)
            theta_next = tuple(float(v) for v in it.theta_next)
            step_clipped = clipped_axes(
                theta_before - a_k * it.gradient, it.theta_next
            )
        self.audit.record_decision(
            SPSADecision(
                round_index=self._rounds_run,
                k=self.tuner.k,
                sim_time=self.system.time,
                rho=rho,
                a_k=float(a_k),
                c_k=float(c_k),
                theta=tuple(float(v) for v in theta_before),
                delta=tuple(float(v) for v in delta),
                theta_plus=tuple(float(v) for v in theta_plus),
                theta_minus=tuple(float(v) for v in theta_minus),
                probe_clipped=probe_clipped,
                y_plus=float(plus.objective),
                y_minus=float(minus.objective),
                gradient=gradient,
                theta_next=theta_next,
                step_clipped=step_clipped,
                guarded=guarded,
                plus_corrupted=plus.corrupted,
                minus_corrupted=minus.corrupted,
            )
        )

    def _do_reset(self) -> RoundRecord:
        """§5.5 restart: reset k, x, ρ, pause history, and window."""
        # Capture the drift that tripped the trigger before the
        # acknowledgement below clears the monitor's window.
        self._reset_std = self.rate_monitor.current_std()
        self.tuner.restart()
        self.pause_rule.reset()
        self.collector.reset_window()
        self.rate_monitor.acknowledge_reset()
        self.paused = False
        self.report.resets += 1
        self._m_resets.inc()
        self._note_trace_interest("reset")
        self.audit.record_firing(
            "reset", self._rounds_run, self.system.time,
            detail=(
                f"input-rate drift exceeded the §5.5 threshold "
                f"(rate std {self._reset_std:.3f} > "
                f"{self.rate_monitor.THRESHOLD:g})"
            ),
        )
        return self._record("reset", self.tuner.theta)

    # -- checkpoint / restore ------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Serialize full resumable controller state (JSON-safe).

        The paper's §5.5 restart throws away the SPSA iterate, the
        gain-schedule position, ρ and every evaluation
        (arXiv:2309.01901 names this restart cost as NoStop's core
        limitation).  A checkpoint keeps all of it: the tuner's own
        checkpoint (θ, k, RNG bit-generator state, ρ, pending pair), the
        pause rule's evaluation history, the §5.4 collector window, the
        §5.5 rate-monitor window, and round/pause bookkeeping plus the
        audit-trail cursor.  Journal it, write it to disk, or hand it to
        a freshly built controller: restored onto the same live system,
        the continuation matches an uninterrupted run round for round.
        """
        report = self.report
        return {
            "version": CHECKPOINT_VERSION,
            "simTime": float(self.system.time),
            "roundsRun": int(self._rounds_run),
            "paused": bool(self.paused),
            "startTime": float(self._start_time),
            "adjustCalls": int(self.adjust.calls),
            "tuner": self.tuner.checkpoint(),
            "pauseRule": self.pause_rule.checkpoint(),
            "collector": self.collector.checkpoint(),
            "rateMonitor": self.rate_monitor.checkpoint(),
            "counters": {
                "poisonedStepsAvoided": int(self.poisoned_steps_avoided),
                "poisonedStepsTaken": int(self.poisoned_steps_taken),
                "corruptedRetries": int(self.corrupted_retries),
            },
            "report": {
                "resets": int(report.resets),
                "firstPauseRound": report.first_pause_round,
                "firstPauseTime": report.first_pause_time,
                "adjustCallsToPause": report.adjust_calls_to_pause,
            },
            "audit": {
                "decisions": len(self.audit.decisions),
                "firings": len(self.audit.firings),
            },
        }

    def restore(self, state: Dict[str, Any], reapply: bool = False) -> None:
        """Resume from a :meth:`checkpoint` snapshot.

        On the same live system (``reapply=False``) the continuation is
        bit-exact; ``reapply=True`` additionally re-applies the
        checkpointed configuration, as a restarted driver resubmitting
        the job must, at the cost of one configuration change.  Records
        a ``"restore"`` audit firing either way.
        """
        version = state.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        self.tuner.restore(state["tuner"])
        self.pause_rule.restore(state["pauseRule"])
        self.collector.restore(state["collector"])
        self.rate_monitor.restore(state["rateMonitor"])
        self.paused = bool(state["paused"])
        self._rounds_run = int(state["roundsRun"])
        self._start_time = float(state["startTime"])
        self.adjust.calls = int(state["adjustCalls"])
        counters = state["counters"]
        self.poisoned_steps_avoided = int(counters["poisonedStepsAvoided"])
        self.poisoned_steps_taken = int(counters["poisonedStepsTaken"])
        self.corrupted_retries = int(counters["corruptedRetries"])
        report = state["report"]
        self.report.resets = int(report["resets"])
        self.report.first_pause_round = report["firstPauseRound"]
        self.report.first_pause_time = report["firstPauseTime"]
        self.report.adjust_calls_to_pause = report["adjustCallsToPause"]

        if reapply:
            if self.paused and self.pause_rule.evaluations:
                theta = self.pause_rule.best_config().theta
            else:
                theta = self.tuner.theta
            apply_theta(self.system, theta, self.scaler)

        audit_cursor = state.get("audit", {})
        self.audit.record_firing(
            "restore", self._rounds_run, self.system.time,
            detail=(
                f"controller restored from checkpoint: k={self.tuner.k}, "
                f"paused={self.paused}, "
                f"evaluations={self.pause_rule.evaluations}, "
                f"audit cursor decisions={audit_cursor.get('decisions', 0)} "
                f"firings={audit_cursor.get('firings', 0)}"
            ),
        )

    # -- control rounds ------------------------------------------------------

    def run_round(self) -> RoundRecord:
        """Execute one control round and return its record."""
        self._rounds_run += 1
        self._m_rounds.inc()
        if self.rate_monitor.need_reset():
            record = self._do_reset()
        elif self.paused:
            record = self._monitor_round()
        else:
            record = self._optimize_round()
        self.report.rounds.append(record)
        return record

    def _evaluate(self) -> Tuple[np.ndarray, AdjustResult]:
        """The one probe path: ask, project θ into the box, measure it
        through Adjust and read the input rate (§5.5).

        A hardened controller re-measures a corrupted probe once; the
        re-measure re-applies θ, so a transient failure (executor slot
        back, broker recovered) heals within the same round, and a
        persisting outage leaves the result corrupted for the guard.
        """
        theta = self.scaler.scaled.project(self.tuner.ask())
        rho = self.tuner.rho(self.rho_cap)
        result = self.adjust(theta, rho)
        self._observe_rate()
        if result.corrupted and self.harden:
            self.corrupted_retries += 1
            result = self.adjust(theta, rho)
            self._observe_rate()
        return theta, result

    def _optimize_round(self) -> RoundRecord:
        tuner = self.tuner
        theta_before = tuner.theta.copy()
        theta_plus, plus = self._evaluate()
        pending = tuner.pending
        theta_minus, minus = self._evaluate()
        corrupted = plus.corrupted or minus.corrupted
        guarded = corrupted and self.harden
        if guarded:
            # Guard: differentiating through a measurement of "some other
            # configuration" (failed apply) or a fault transient would
            # hand SPSA a garbage gradient.  Roll back — θ stays at the
            # current estimate — and let the next round re-probe.
            tuner.discard()
            self.poisoned_steps_avoided += 1
            self._m_guarded.inc()
        else:
            if corrupted:
                self.poisoned_steps_taken += 1
            tuner.observe(theta_plus, plus.objective)
            tuner.observe(theta_minus, minus.objective)
        # plus.rho: the ρ the pair was measured at, before observe stepped it.
        self._record_decision(
            theta_before, theta_plus, theta_minus, pending, plus.rho,
            plus, minus, guarded,
        )
        # Corrupted probes never enter the ranking history either: a
        # lucky-looking objective measured under a failed apply would
        # park the system at a configuration that was never tested.
        if not plus.corrupted:
            self._rank(plus, theta_plus, tuner.k)
        if not minus.corrupted:
            self._rank(minus, theta_minus, tuner.k)

        if self.pause_rule.should_pause():
            self._enter_pause()

        return self._record(
            "optimize", self.tuner.theta,
            plus_result=plus, minus_result=minus, guarded=guarded,
        )

    def _enter_pause(self) -> None:
        """Stop optimizing; run at the best configuration found."""
        self.paused = True
        config = apply_theta(
            self.system, self.pause_rule.best_config().theta, self.scaler
        )
        self._note_trace_interest("pause")
        self.audit.record_firing(
            "pause", self._rounds_run, self.system.time,
            detail=(
                f"impeded progress; parked at interval={config[0]:g}, "
                f"executors={config[1]}"
            ),
        )
        if self.report.first_pause_round is None:
            self.report.first_pause_round = self._rounds_run
            self.report.first_pause_time = self.system.time - self._start_time
            self.report.adjust_calls_to_pause = self.adjust.calls

    def _monitor_round(self) -> RoundRecord:
        """One monitoring window while paused at the best configuration."""
        best = self.pause_rule.best_config()
        interval, executors = theta_to_configuration(best.theta, self.scaler)[:2]
        self.collector.set_degraded(self.system.degraded())
        self.collector.start_measurement()
        measurement = self.system.collect(self.collector)
        self._observe_rate()
        # Fold the monitoring window back into the parked configuration's
        # evaluation history: a configuration that ranked best off one
        # lucky probe window is corrected by its own steady-state
        # behaviour (the pause rule averages repeated measurements).
        # A tainted monitoring window (fault transient the collector
        # could not reject) is skipped — it would unfairly demote the
        # parked optimum for infrastructure noise it did not cause.
        if measurement.tainted and self.harden:
            return self._record(
                "paused", best.theta, monitor=measurement, guarded=True
            )
        proc = measurement.mean_processing_time
        self.pause_rule.record(
            EvaluatedConfig(
                theta=best.theta,
                objective=penalized_objective(interval, proc, self.rho_cap),
                end_to_end_delay=steady_state_delay(interval, proc),
                iteration=self.tuner.k,
                batch_interval=interval,
                num_executors=executors,
                mean_processing_time=proc,
                stable=proc <= interval,
            )
        )
        # §5.4 additive increase: relax the window while at the optimum.
        self.collector.relax_window()
        # Resume optimization if the system turned unstable at the optimum.
        if proc > interval * self.STABILITY_SLACK:
            self.paused = False
            self.collector.reset_window()
            self._note_trace_interest("resume")
            self.audit.record_firing(
                "resume", self._rounds_run, self.system.time,
                detail=(
                    f"instability at the parked optimum: processing "
                    f"{proc:.3f}s > "
                    f"interval {interval:g}s x slack {self.STABILITY_SLACK:g}"
                ),
            )
        return self._record("paused", best.theta, monitor=measurement)

    # -- full runs -----------------------------------------------------------

    def run_until_pause(self, max_evaluations: int) -> List[EvaluatedConfig]:
        """The tournament's policy: evaluate until the pause rule fires.

        Every probe, corrupted or not, is ranked at once (its iteration
        is the evaluation count) and handed to ``observe``; the pause
        rule is read after each.  Stops at the budget, when the tuner is
        exhausted, or at the pause, which sets :attr:`paused` and parks
        nothing.  Returns the ranked records in evaluation order.
        """
        if max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        ranked: List[EvaluatedConfig] = []
        while len(ranked) < max_evaluations and not self.tuner.exhausted:
            theta, result = self._evaluate()
            evaluated = self._rank(result, theta, len(ranked) + 1)
            ranked.append(evaluated)
            self.tuner.observe(theta, result.objective, evaluated)
            if self.pause_rule.should_pause():
                self.paused = True
                break
        return ranked

    def confirm_best(self, iteration: Optional[int] = None) -> None:
        """Re-measure singleton winners before trusting them.

        With dozens of noisy two-to-three-batch probe windows, the
        minimum-objective configuration is biased toward lucky
        measurements (winner's curse).  Re-measuring the current best at
        the penalty cap until it has at least two windows — demoting it
        if the average no longer wins — makes the reported final
        configuration honest.  A hardened controller skips a probe a
        fault transient corrupted: it neither confirms nor demotes the
        incumbent.  At most ``MAX_CONFIRMATIONS`` probes are spent; the
        re-measurements rank at ``iteration``, by default the SPSA
        iteration count.
        """
        if iteration is None:
            iteration = self.tuner.k
        rule = self.pause_rule
        for _ in range(self.MAX_CONFIRMATIONS):
            if not rule.evaluations:
                return
            best = rule.best_config()
            if rule.measurement_count(best.theta) >= 2:
                return
            theta = np.asarray(best.theta, dtype=float)
            result = self.adjust(theta, self.rho_cap)
            if not (self.harden and result.corrupted):
                self._rank(result, theta, iteration)

    def run(self, rounds: int, confirm: bool = True) -> NoStopReport:
        """Run ``rounds`` control rounds and finalize the report."""
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        for _ in range(rounds):
            self.run_round()
        if confirm:
            self.confirm_best()
        self.report.config_changes = self.system.config_changes
        self.report.poisoned_steps_avoided = self.poisoned_steps_avoided
        self.report.poisoned_steps_taken = self.poisoned_steps_taken
        self.report.corrupted_retries = self.corrupted_retries
        theta = self.tuner.theta
        if self.pause_rule.evaluations:
            self.report.best = self.pause_rule.best_config()
            theta = self.report.best.theta
        interval, executors = theta_to_configuration(theta, self.scaler)[:2]
        self.report.final_interval = interval
        self.report.final_executors = executors
        return self.report

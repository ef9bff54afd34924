"""The NoStop controller (Algorithm 1 + the §5 operational rules).

Ties together every piece of the scheme:

* the :class:`~repro.core.spsa.SPSAOptimizer` in min–max-scaled
  configuration space (§5.1–§5.2),
* the :class:`~repro.core.adjust.AdjustFunction` performing live
  perturbed measurements (Algorithm 2),
* the ρ penalty schedule (Eq. 3),
* the impeded-progress :class:`~repro.core.pause.PauseRule` (§5.3.5),
* the additive-increase :class:`~repro.core.metrics_collector.MetricsCollector`
  window (§5.4),
* the :class:`~repro.core.rate_monitor.RateMonitor` reset trigger (§5.5).

Each call to :meth:`NoStopController.run_round` performs one control
round — an SPSA iteration (two live configuration changes) while
optimizing, or one monitoring window while paused at the best known
configuration.  The run history carries everything needed to draw the
paper's Fig. 6 evolution plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.obs import catalog
from repro.obs.audit import SPSADecision, clipped_axes
from repro.obs.tracer import NOOP_TELEMETRY, Telemetry

from .adjust import AdjustFunction, AdjustResult, ControlledSystem
from .bounds import MinMaxScaler
from .gains import GainSchedule, paper_gains
from .metrics_collector import Measurement, MetricsCollector
from .objective import RhoSchedule
from .pause import EvaluatedConfig, PauseRule, confirm_best
from .perturbation import PerturbationGenerator
from .rate_monitor import RateMonitor
from .spsa import SPSAOptimizer


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
    """Online configuration optimizer for a controlled streaming system."""

    def __init__(
        self,
        system: ControlledSystem,
        scaler: MinMaxScaler,
        gains: Optional[GainSchedule] = None,
        theta_initial_scaled: Optional[Sequence[float]] = None,
        perturbation: Optional[PerturbationGenerator] = None,
        pause_rule: Optional[PauseRule] = None,
        rate_monitor: Optional[RateMonitor] = None,
        collector: Optional[MetricsCollector] = None,
        rho_schedule: Optional[RhoSchedule] = None,
        seed: int = 0,
        stability_slack: float = 1.05,
        harden: bool = True,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.system = system
        self.scaler = scaler
        self.collector = collector or MetricsCollector()
        self.adjust = AdjustFunction(system, scaler, self.collector)
        theta0 = (
            np.asarray(theta_initial_scaled, dtype=float)
            if theta_initial_scaled is not None
            else scaler.scaled.center()
        )
        self.spsa = SPSAOptimizer(
            gains=gains or paper_gains(),
            box=scaler.scaled,
            theta_initial=theta0,
            perturbation=perturbation,
            seed=seed,
        )
        self.pause_rule = pause_rule or PauseRule()
        self.rate_monitor = rate_monitor or RateMonitor()
        self.rho = rho_schedule or RhoSchedule()
        if stability_slack < 1.0:
            raise ValueError("stability_slack must be >= 1.0")
        self.stability_slack = stability_slack
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

    def _current_configuration(self) -> tuple:
        """(interval, executors) of the current estimate (extra axes of a
        multi-parameter space are dropped from the round record)."""
        from .adjust import theta_to_configuration

        return theta_to_configuration(self.spsa.theta, self.scaler)[:2]

    def _note_trace_interest(self, kind: str) -> None:
        """Mark the batches around an audit-rule firing interesting.

        The flight recorder's tail retention keeps every trace that
        overlaps the window, so the batches that triggered — and the
        batches that absorbed — a reset/pause/resume decision are always
        available for critical-path analysis, regardless of sampling.
        """
        interval, _ = self._current_configuration()
        t = self.system.time
        self.telemetry.tracer.note_interest(t - interval, t + interval, kind)

    def _observe_rate(self) -> None:
        self.rate_monitor.observe(self.system.observed_input_rate())

    def _record_evaluation(self, result: AdjustResult, theta: np.ndarray) -> None:
        from .adjust import evaluate_config

        self.pause_rule.record(
            evaluate_config(result, theta, self.spsa.k, rho_cap=self.rho.cap)
        )

    def _record_decision(
        self,
        theta_before: np.ndarray,
        theta_plus: np.ndarray,
        theta_minus: np.ndarray,
        delta: np.ndarray,
        c_k: float,
        plus: AdjustResult,
        minus: AdjustResult,
        guarded: bool,
    ) -> None:
        """Explain this round's SPSA arithmetic in the audit trail."""
        if not self.audit.enabled:
            return
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
            a_k = self.spsa.gains.a_k(self.spsa.k + 1)
            gradient = None
            theta_next = tuple(float(v) for v in theta_before)
            step_clipped = tuple(False for _ in theta_before)
        else:
            it = self.spsa.history[-1]
            a_k = it.a_k
            gradient = tuple(float(v) for v in it.gradient)
            theta_next = tuple(float(v) for v in it.theta_next)
            step_clipped = clipped_axes(
                theta_before - a_k * it.gradient, it.theta_next
            )
        self.audit.record_decision(
            SPSADecision(
                round_index=self._rounds_run,
                k=self.spsa.k,
                sim_time=self.system.time,
                rho=self.rho.value,
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
        self.spsa.reset()
        self.rho.reset()
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
                f"{self.rate_monitor.threshold:g})"
            ),
        )
        interval, executors = self._current_configuration()
        return RoundRecord(
            round_index=self._rounds_run,
            k=self.spsa.k,
            phase="reset",
            sim_time=self.system.time,
            rho=self.rho.value,
            theta_scaled=self.spsa.theta.copy(),
            batch_interval=interval,
            num_executors=executors,
        )

    # -- checkpoint / restore ------------------------------------------------

    def checkpoint(self) -> dict:
        """Serialize full resumable tuner state (JSON-safe).

        Captures the SPSA iterate and RNG state, gain-schedule position,
        ρ schedule, pause-rule evaluation history, metrics-collector
        window, rate-monitor window, and round/pause bookkeeping — the
        alternative to the paper's throw-it-all-away §5.5 restart.  See
        :mod:`repro.core.checkpoint`.
        """
        from .checkpoint import controller_checkpoint

        return controller_checkpoint(self)

    def restore(self, state: dict, reapply: bool = False) -> None:
        """Resume from a :meth:`checkpoint` snapshot.

        On the same live system (``reapply=False``) the continuation is
        bit-exact; ``reapply=True`` additionally re-applies the
        checkpointed configuration, as a restarted driver must.
        Records a ``"restore"`` audit firing either way.
        """
        from .checkpoint import controller_restore

        controller_restore(self, state, reapply=reapply)

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

    def _probe(self, theta: np.ndarray) -> AdjustResult:
        """One perturbed measurement, re-measured once if corrupted.

        The re-measure re-applies θ, so a transient failure (executor
        slot back, broker recovered) heals within the same round; a
        persisting outage leaves the result corrupted for the guard.
        """
        result = self.adjust(theta, self.rho.value)
        self._observe_rate()
        if result.corrupted and self.harden:
            self.corrupted_retries += 1
            result = self.adjust(theta, self.rho.value)
            self._observe_rate()
        return result

    def _optimize_round(self) -> RoundRecord:
        theta_before = self.spsa.theta.copy()
        theta_plus, theta_minus, delta, c_k = self.spsa.propose()
        plus = self._probe(theta_plus)
        minus = self._probe(theta_minus)
        corrupted = plus.corrupted or minus.corrupted
        guarded = False
        if corrupted and self.harden:
            # Guard: differentiating through a measurement of "some other
            # configuration" (failed apply) or a fault transient would
            # hand SPSA a garbage gradient.  Roll back — θ stays at the
            # current estimate — and let the next round re-probe.
            guarded = True
            self.poisoned_steps_avoided += 1
            self._m_guarded.inc()
        else:
            if corrupted:
                self.poisoned_steps_taken += 1
            self.spsa.apply_measurements(
                theta_plus, theta_minus, delta, c_k,
                plus.objective, minus.objective,
            )
        self._record_decision(
            theta_before, theta_plus, theta_minus, delta, c_k,
            plus, minus, guarded,
        )
        # Corrupted probes never enter the ranking history either: a
        # lucky-looking objective measured under a failed apply would
        # park the system at a configuration that was never tested.
        if not plus.corrupted:
            self._record_evaluation(plus, theta_plus)
        if not minus.corrupted:
            self._record_evaluation(minus, theta_minus)
        self.rho.step()

        if self.pause_rule.should_pause():
            self._enter_pause()

        interval, executors = self._current_configuration()
        return RoundRecord(
            round_index=self._rounds_run,
            k=self.spsa.k,
            phase="optimize",
            sim_time=self.system.time,
            rho=self.rho.value,
            theta_scaled=self.spsa.theta.copy(),
            batch_interval=interval,
            num_executors=executors,
            plus_result=plus,
            minus_result=minus,
            guarded=guarded,
        )

    def _enter_pause(self) -> None:
        """Stop optimizing; run at the best configuration found."""
        self.paused = True
        best = self.pause_rule.best_config()
        from .adjust import theta_to_configuration

        config = theta_to_configuration(np.asarray(best.theta), self.scaler)
        self.system.apply_configuration(
            config[0], config[1],
            partitions=config[2] if len(config) > 2 else None,
            executor_cores=config[3] if len(config) > 3 else None,
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
        from .adjust import theta_to_configuration

        config = theta_to_configuration(np.asarray(best.theta), self.scaler)
        interval, executors = config[0], config[1]
        self.collector.set_degraded(self.system.degraded())
        measurement = self.system.collect(self.collector)
        self._observe_rate()
        # Fold the monitoring window back into the parked configuration's
        # evaluation history: a configuration that ranked best off one
        # lucky probe window is corrected by its own steady-state
        # behaviour (the pause rule averages repeated measurements).
        # A tainted monitoring window (fault transient the collector
        # could not reject) is skipped — it would unfairly demote the
        # parked optimum for infrastructure noise it did not cause.
        from .objective import penalized_objective
        from .pause import steady_state_delay

        if measurement.tainted and self.harden:
            return RoundRecord(
                round_index=self._rounds_run,
                k=self.spsa.k,
                phase="paused",
                sim_time=self.system.time,
                rho=self.rho.value,
                theta_scaled=np.asarray(best.theta, dtype=float),
                batch_interval=interval,
                num_executors=executors,
                monitor=measurement,
                guarded=True,
            )
        self.pause_rule.record(
            EvaluatedConfig(
                theta=best.theta,
                objective=penalized_objective(
                    interval, measurement.mean_processing_time, self.rho.cap
                ),
                end_to_end_delay=steady_state_delay(
                    interval, measurement.mean_processing_time
                ),
                iteration=self.spsa.k,
                batch_interval=interval,
                num_executors=executors,
                mean_processing_time=measurement.mean_processing_time,
                stable=measurement.mean_processing_time <= interval,
            )
        )
        # §5.4 additive increase: relax the window while at the optimum.
        self.collector.relax_window()
        # Resume optimization if the system turned unstable at the optimum.
        if measurement.mean_processing_time > interval * self.stability_slack:
            self.paused = False
            self.collector.reset_window()
            self._note_trace_interest("resume")
            self.audit.record_firing(
                "resume", self._rounds_run, self.system.time,
                detail=(
                    f"instability at the parked optimum: processing "
                    f"{measurement.mean_processing_time:.3f}s > "
                    f"interval {interval:g}s x slack {self.stability_slack:g}"
                ),
            )
        return RoundRecord(
            round_index=self._rounds_run,
            k=self.spsa.k,
            phase="paused",
            sim_time=self.system.time,
            rho=self.rho.value,
            theta_scaled=np.asarray(best.theta, dtype=float),
            batch_interval=interval,
            num_executors=executors,
            monitor=measurement,
        )

    # -- full runs -----------------------------------------------------------

    def confirm_best(self, max_confirmations: int = 4) -> None:
        """Re-measure singleton winners before trusting them.

        See :func:`repro.core.pause.confirm_best`; a hardened controller
        skips corrupted probes.
        """
        confirm_best(
            self.pause_rule,
            self.adjust,
            self.rho.cap,
            self.spsa.k,
            max_confirmations=max_confirmations,
            skip_corrupted=self.harden,
        )

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
        if self.pause_rule.evaluations:
            best = self.pause_rule.best_config()
            self.report.best = best
            from .adjust import theta_to_configuration

            interval, executors = theta_to_configuration(
                np.asarray(best.theta), self.scaler
            )[:2]
            self.report.final_interval = interval
            self.report.final_executors = executors
        else:
            interval, executors = self._current_configuration()
            self.report.final_interval = interval
            self.report.final_executors = executors
        return self.report

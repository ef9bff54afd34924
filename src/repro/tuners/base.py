"""The unified ``Tuner`` interface and the tournament run driver.

Every optimizer in the zoo — SPSA/NoStop, Bayesian optimization,
simulated annealing, grid and random search, the tabular-RL tuner, the
safe online tuner — speaks the same four-verb protocol:

* :meth:`Tuner.ask` — propose the next scaled configuration θ;
* :meth:`Tuner.observe` — feed back the measured penalized objective
  (plus the ranked :class:`~repro.core.pause.EvaluatedConfig`);
* :meth:`Tuner.checkpoint` / :meth:`Tuner.restore` — JSON-safe,
  bit-exact resumable state (RNG bit-generator state included), the same
  contract :class:`~repro.core.spsa.SPSAOptimizer` already honours.

:func:`run_tuner` drives any registered tuner against a live
:class:`~repro.core.adjust.ControlledSystem` through the identical
Adjust measurement pathway NoStop uses, scores the run on the three
tournament axes (convergence batches, SLO-violation seconds, total
reconfiguration cost), and reports a flat, JSON-friendly record — the
unit the ``tournament`` sweep cell fans out over.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.core.adjust import AdjustFunction, ControlledSystem, evaluate_config
from repro.core.bounds import MinMaxScaler
from repro.core.metrics_collector import MetricsCollector
from repro.core.pause import EvaluatedConfig, PauseRule
from repro.obs import catalog
from repro.obs.registry import MetricsRegistry

#: Finite stand-in for a diverged (non-finite) objective observation.
#: Large enough to rank a diverged configuration strictly worst, small
#: enough to keep the BO GP solve numerically sane; shared by every tuner
#: so all rank a diverged probe identically.
DIVERGENCE_PENALTY = 1.0e6


def clamp_objective(y: float, penalty: float = DIVERGENCE_PENALTY) -> float:
    """Map a non-finite objective to the finite divergence penalty."""
    value = float(y)
    return value if np.isfinite(value) else float(penalty)


class Tuner(abc.ABC):
    """One optimizer behind the ask/observe/checkpoint protocol.

    Subclasses set :attr:`name` (the registry key and metric label) and
    receive the configuration-space scaler plus a seed; every source of
    randomness must derive from that seed so two tuners constructed with
    identical arguments propose identical θ sequences.
    """

    #: Registry key; also the ``tuner`` label on ``repro_tuner_*``.
    name: str = "abstract"

    def __init__(self, scaler: MinMaxScaler, seed: int = 0) -> None:
        self.scaler = scaler
        self.box = scaler.scaled
        self.seed = int(seed)

    @abc.abstractmethod
    def ask(self) -> np.ndarray:
        """Propose the next scaled configuration to evaluate."""

    @abc.abstractmethod
    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        """Feed back the measured objective for an asked θ.

        ``objective`` may be non-finite (a diverged probe); tuners clamp
        it through :func:`clamp_objective` rather than raising.
        ``evaluated`` carries the ranked record (stability verdict,
        steady-state delay) for tuners whose policy depends on more than
        the scalar objective.
        """

    @abc.abstractmethod
    def checkpoint(self) -> dict:
        """JSON-safe snapshot of the full resumable state."""

    @abc.abstractmethod
    def restore(self, state: dict) -> None:
        """Resume from a :meth:`checkpoint` snapshot, bit-exactly."""

    @property
    def exhausted(self) -> bool:
        """Whether the tuner has no further proposals (grid search)."""
        return False

    def rho(self, cap: float) -> float:
        """Penalty coefficient for the next measurement.

        Tuners without an iteration-coupled ρ schedule measure at the
        cap (the ranking coefficient), so their objectives are directly
        comparable across the whole run.
        """
        return float(cap)


# -- registry ----------------------------------------------------------------

_REGISTRY: Dict[str, Type[Tuner]] = {}


def register_tuner(name: str) -> Callable[[Type[Tuner]], Type[Tuner]]:
    """Class decorator adding a tuner to the tournament registry."""

    def wrap(cls: Type[Tuner]) -> Type[Tuner]:
        if name in _REGISTRY:
            raise ValueError(f"tuner {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return wrap


def tuner_names() -> List[str]:
    """All registered tuner names, sorted (the tournament roster)."""
    return sorted(_REGISTRY)


def make_tuner(
    name: str, scaler: MinMaxScaler, seed: int = 0, **options: Any
) -> Tuner:
    """Instantiate a registered tuner over a configuration space."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown tuner {name!r}; expected one of {tuner_names()}"
        ) from None
    return cls(scaler, seed=seed, **options)


# -- run driver --------------------------------------------------------------


@dataclass
class TunerRunReport:
    """One tuner's scored run — a leaderboard row before aggregation."""

    tuner: str
    evaluations: int = 0
    converged: bool = False
    converged_at: Optional[int] = None
    convergence_batches: int = 0
    """Micro-batches executed when the pause rule fired (total batches
    for runs that never converged — the honest worst-case score)."""
    slo_violation_seconds: float = 0.0
    """Stream-time seconds covered by batches whose end-to-end delay
    breached the SLO."""
    reconfig_seconds: float = 0.0
    """Total reconfiguration pause injected into the pipeline."""
    config_changes: int = 0
    best_objective: float = float("inf")
    best_theta: Tuple[float, ...] = ()
    best_delay: float = 0.0
    best_stable: bool = False
    search_time: float = 0.0
    batches_executed: int = 0
    evaluated: List[EvaluatedConfig] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """Flat camelCase record for sweep cells and JSON artifacts."""
        return {
            "tuner": self.tuner,
            "evaluations": int(self.evaluations),
            "converged": bool(self.converged),
            "convergedAt": self.converged_at,
            "convergenceBatches": int(self.convergence_batches),
            "sloViolationSeconds": float(self.slo_violation_seconds),
            "reconfigSeconds": float(self.reconfig_seconds),
            "configChanges": int(self.config_changes),
            "bestObjective": float(self.best_objective),
            "bestTheta": [float(v) for v in self.best_theta],
            "bestDelay": float(self.best_delay),
            "bestStable": bool(self.best_stable),
            "searchTime": float(self.search_time),
            "batchesExecuted": int(self.batches_executed),
        }


def _batch_metrics(system: ControlledSystem):
    """The listener batch history, when the system exposes one."""
    context = getattr(system, "context", None)
    listener = getattr(context, "listener", None)
    return getattr(listener, "metrics", None)


def _pause_injected(system: ControlledSystem) -> float:
    context = getattr(system, "context", None)
    engine = getattr(context, "engine", None)
    return float(getattr(engine, "total_pause_injected", 0.0))


def run_tuner(
    tuner: Tuner,
    system: ControlledSystem,
    scaler: MinMaxScaler,
    max_evaluations: int = 30,
    rho_cap: float = 2.0,
    slo_delay: float = 30.0,
    pause_rule: Optional[PauseRule] = None,
    collector: Optional[MetricsCollector] = None,
    registry: Optional[MetricsRegistry] = None,
) -> TunerRunReport:
    """Drive one tuner against a live system and score the run.

    The loop is the tournament's level playing field: every tuner pays
    for its configuration changes through the same Adjust pathway,
    is judged by the same impeded-progress pause rule, and is scored on

    * **convergence batches** — micro-batches the stream executed before
      the pause rule fired (lower = faster convergence);
    * **SLO-violation seconds** — stream seconds inside batches whose
      end-to-end delay exceeded ``slo_delay`` (lower = safer search);
    * **reconfig seconds** — total reconfiguration pause injected
      (lower = cheaper search).
    """
    if max_evaluations < 1:
        raise ValueError("max_evaluations must be >= 1")
    if slo_delay <= 0:
        raise ValueError("slo_delay must be positive")
    collector = collector or MetricsCollector()
    adjust = AdjustFunction(system, scaler, collector)
    rule = pause_rule or PauseRule()
    report = TunerRunReport(tuner=tuner.name)
    metrics = _batch_metrics(system)
    start_time = system.time
    start_changes = system.config_changes
    start_pause = _pause_injected(system)

    for i in range(1, max_evaluations + 1):
        if tuner.exhausted:
            break
        theta = scaler.scaled.project(tuner.ask())
        result = adjust(theta, tuner.rho(rho_cap))
        evaluated = evaluate_config(result, theta, i, rho_cap=rho_cap)
        rule.record(evaluated)
        report.evaluated.append(evaluated)
        tuner.observe(theta, result.objective, evaluated)
        report.evaluations = i
        if rule.should_pause():
            report.converged = True
            report.converged_at = i
            break

    total_batches = len(metrics) if metrics is not None else 0
    report.convergence_batches = total_batches
    report.batches_executed = total_batches
    if metrics is not None:
        report.slo_violation_seconds = float(
            sum(
                b.interval
                for b in metrics.batches
                if b.end_to_end_delay > slo_delay
            )
        )
    report.reconfig_seconds = _pause_injected(system) - start_pause
    report.config_changes = system.config_changes - start_changes
    report.search_time = system.time - start_time
    if rule.evaluations:
        best = rule.best_config()
        report.best_objective = best.objective
        report.best_theta = best.theta
        report.best_delay = best.end_to_end_delay
        report.best_stable = best.stable

    if registry is not None:
        label = tuner.name
        catalog.instrument(registry, "repro_tuner_asks_total").labels(
            tuner=label
        ).inc(report.evaluations)
        catalog.instrument(registry, "repro_tuner_observations_total").labels(
            tuner=label
        ).inc(report.evaluations)
        catalog.instrument(registry, "repro_tuner_convergence_batches").labels(
            tuner=label
        ).set(report.convergence_batches)
        catalog.instrument(
            registry, "repro_tuner_slo_violation_seconds"
        ).labels(tuner=label).set(report.slo_violation_seconds)
        catalog.instrument(registry, "repro_tuner_reconfig_seconds").labels(
            tuner=label
        ).set(report.reconfig_seconds)
        if np.isfinite(report.best_objective):
            catalog.instrument(
                registry, "repro_tuner_best_objective"
            ).labels(tuner=label).set(report.best_objective)
    return report

"""The unified ``Tuner`` interface and the tournament run driver.

Every optimizer in the zoo — SPSA/NoStop, Bayesian optimization,
simulated annealing, grid and random search, the tabular-RL tuner, the
safe online tuner — speaks the same four-verb protocol:

* :meth:`Tuner.ask` — propose the next scaled configuration θ;
* :meth:`Tuner.observe` — feed back the measured penalized objective
  (plus the ranked :class:`~repro.core.pause.EvaluatedConfig`);
* :meth:`Tuner.checkpoint` / :meth:`Tuner.restore` — JSON-safe,
  bit-exact resumable state (RNG bit-generator state included), which
  :class:`~repro.core.nostop.NoStopController` also journals.

:func:`run_tuner` drives any registered tuner against a live
:class:`~repro.core.adjust.ControlledSystem` through NoStop's own
controller (its tournament policy), scores the run on the three
tournament axes (convergence batches, SLO-violation seconds, total
reconfiguration cost), and reports a flat, JSON-friendly record — the
unit the ``tournament`` sweep cell fans out over.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.core.adjust import ControlledSystem
from repro.core.bounds import MinMaxScaler
from repro.core.pause import EvaluatedConfig

#: Finite stand-in for a diverged (non-finite) objective observation.
#: Large enough to rank a diverged configuration strictly worst, small
#: enough to keep the BO GP solve numerically sane; shared by every tuner
#: so all rank a diverged probe identically.
DIVERGENCE_PENALTY = 1.0e6

#: End-to-end delay SLO (seconds) of a run that names none: the
#: tournament's default.
DEFAULT_SLO_DELAY = 30.0


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
    #: The run's end-to-end delay SLO in seconds, set by
    #: :func:`make_tuner`; only SLO-aware policies read it.
    slo_delay: float = DEFAULT_SLO_DELAY

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

#: Modules whose import registers the built-in tuners.  Readers of the
#: registry import them first, so the roster is complete without the
#: package ``__init__`` having to load them.
_BUILTIN_MODULES = ("adapters", "rl", "safe_online")


def _registry() -> Dict[str, Type[Tuner]]:
    for module in _BUILTIN_MODULES:
        import_module(f"repro.tuners.{module}")
    return _REGISTRY


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
    return sorted(_registry())


def make_tuner(
    name: str,
    scaler: MinMaxScaler,
    seed: int = 0,
    slo_delay: float = DEFAULT_SLO_DELAY,
) -> Tuner:
    """Instantiate a registered tuner over a configuration space, for a
    run whose delay SLO is ``slo_delay`` seconds."""
    try:
        cls = _registry()[name]
    except KeyError:
        raise KeyError(
            f"unknown tuner {name!r}; expected one of {tuner_names()}"
        ) from None
    tuner = cls(scaler, seed=seed)
    tuner.slo_delay = float(slo_delay)
    return tuner


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
    slo_delay: float = DEFAULT_SLO_DELAY,
    confirm: bool = False,
) -> TunerRunReport:
    """Drive one tuner against a live system and score the run.

    The run is :meth:`~repro.core.nostop.NoStopController.run_until_pause`
    on an unhardened controller: the tournament's level playing field,
    where every tuner pays for its configuration changes through the
    same Adjust pathway, is judged by the same impeded-progress pause
    rule, and is scored on

    * **convergence batches** — micro-batches the stream executed before
      the pause rule fired (lower = faster convergence);
    * **SLO-violation seconds** — stream seconds inside batches whose
      end-to-end delay exceeded ``slo_delay`` (lower = safer search);
    * **reconfig seconds** — total reconfiguration pause injected
      (lower = cheaper search).

    With ``confirm``, a singleton winner is then re-measured by the
    controller's :meth:`~repro.core.nostop.NoStopController.confirm_best`
    pass; the best-configuration fields and the search time cover the
    confirmation, the three scores do not.
    """
    from repro.core.nostop import NoStopController

    if slo_delay <= 0:
        raise ValueError("slo_delay must be positive")
    controller = NoStopController(system, scaler, harden=False, tuner=tuner)
    metrics = _batch_metrics(system)
    start_time = system.time
    start_changes = system.config_changes
    start_pause = _pause_injected(system)
    evaluated = controller.run_until_pause(max_evaluations)
    report = TunerRunReport(
        tuner=tuner.name,
        evaluations=len(evaluated),
        converged=controller.paused,
        converged_at=len(evaluated) if controller.paused else None,
        evaluated=evaluated,
    )

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
    if confirm:
        controller.confirm_best(iteration=report.evaluations)
    report.search_time = system.time - start_time
    rule = controller.pause_rule
    if rule.evaluations:
        best = rule.best_config()
        report.best_objective = best.objective
        report.best_theta = best.theta
        report.best_delay = best.end_to_end_delay
        report.best_stable = best.stable
    return report

"""The classic optimizers behind the :class:`~repro.tuners.base.Tuner`
protocol.

SPSA/NoStop, Bayesian optimization, simulated annealing, random search
and grid search each hold only their search state here; the driving
loop, the Adjust measurement pathway and the pause rule that ranks
their picks are :class:`~repro.core.nostop.NoStopController`'s, shared
through :func:`~repro.tuners.base.run_tuner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.acquisition import expected_improvement
from repro.baselines.gp import GaussianProcess
from repro.core.bounds import MinMaxScaler
from repro.core.gains import GainSchedule, paper_gains
from repro.core.objective import RhoSchedule
from repro.core.pause import EvaluatedConfig
from repro.core.perturbation import BernoulliPerturbation, PerturbationGenerator
from repro.obs import catalog
from repro.obs.registry import NOOP_REGISTRY, MetricsRegistry

from .base import Tuner, clamp_objective, register_tuner


@dataclass(frozen=True)
class SPSAIteration:
    """Full record of one SPSA iteration (for Fig. 6-style evolution
    plots and the audit trail).  An averaged iteration records its last
    pair's probes; a one-measurement iteration records θ as its unused
    θ⁻ and ``y_minus = nan``."""

    k: int
    a_k: float
    c_k: float
    delta: np.ndarray
    theta: np.ndarray
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    y_plus: float
    y_minus: float
    gradient: np.ndarray
    theta_next: np.ndarray


@register_tuner("nostop")
class NoStopTuner(Tuner):
    """The paper's optimizer: SPSA (§4.2.3, §5.3) with the Algorithm 1
    ρ schedule.

    Per iteration k: draw Δ_k, measure ``y(θ_k ± c_k Δ_k)``, estimate
    ``ĝ_k = (y⁺ − y⁻) / (2 c_k Δ_k)`` (elementwise), and step
    ``θ_{k+1} = checkBound(θ_k − a_k ĝ_k)`` — two measurements whatever
    the dimension, SPSA's key economy (§4.2.1).  ``probes`` sets the
    measurements per iteration:

    * ``2`` (the paper): one two-sided estimate;
    * ``1``: one-measurement SPSA (Spall 1997), ``ĝ_k = y⁺ / (c_k Δ_k)``
      — half the configuration changes, a noisier gradient;
    * ``2m``: the mean of m two-sided estimates, each with its own Δ —
      a lower-variance step for m times the changes.

    Each pair's first ``ask`` draws Δ and proposes θ⁺, the second θ⁻
    (``probes=1`` asks θ⁺ only).  :attr:`pending` holds the asked pair
    (Δ, c_k, y⁺) until its observations land, plus an averaged
    iteration's finished ``gradients``; the step fires on the
    iteration's last observation.  This class is the only owner of the SPSA iterate, its
    RNG and the ρ schedule; :class:`~repro.core.nostop.NoStopController`
    drives it.
    """

    def __init__(
        self,
        scaler: MinMaxScaler,
        seed: int = 0,
        gains: Optional[GainSchedule] = None,
        theta_initial: Optional[Sequence[float]] = None,
        probes: int = 2,
    ) -> None:
        super().__init__(scaler, seed)
        if probes < 1 or (probes > 1 and probes % 2):
            raise ValueError(
                f"probes must be 1 or a positive even number, got {probes}"
            )
        self.probes = int(probes)
        self.gains = gains or paper_gains()
        self.gains.validate()
        self.perturbation: PerturbationGenerator = BernoulliPerturbation()
        self.rng = np.random.default_rng(seed)
        self.theta_initial = self.box.project(
            self.box.center() if theta_initial is None else theta_initial
        )
        self.theta = self.theta_initial.copy()
        self.k = 0
        self.history: List[SPSAIteration] = []
        self.schedule = RhoSchedule()
        self.pending: Optional[dict] = None

    def ask(self) -> np.ndarray:
        pending = self.pending
        # Between an averaged iteration's pairs, pending holds only the
        # finished pairs' gradients: the next ask starts a pair.
        if pending is not None and "delta" in pending:
            return np.asarray(pending["thetaMinus"], dtype=float)
        c_k = self.gains.c_k(self.k + 1)
        delta = self.perturbation.sample(self.box.dim, self.rng)
        self.perturbation.validate_sample(delta)
        theta_plus = self.box.project(self.theta + c_k * delta)
        theta_minus = self.box.project(self.theta - c_k * delta)
        self.pending = {
            **(pending or {}),
            "thetaPlus": [float(v) for v in theta_plus],
            "thetaMinus": [float(v) for v in theta_minus],
            "delta": [float(v) for v in delta],
            "ck": float(c_k),
            "yPlus": None,
        }
        return theta_plus

    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        y = clamp_objective(objective)
        pending = self.pending
        if pending is None or "delta" not in pending:
            raise RuntimeError("observe() without a pending ask()")
        if self.probes > 1 and pending["yPlus"] is None:
            pending["yPlus"] = y
            return
        delta = np.asarray(pending["delta"], dtype=float)
        c_k = pending["ck"]
        if self.probes == 1:
            gradient = y / (c_k * delta)
            # The record keeps θ as the unmeasured θ⁻.
            theta_minus = self.theta.copy()
            y_plus, y_minus = y, float("nan")
        else:
            theta_minus = np.asarray(pending["thetaMinus"], dtype=float)
            y_plus, y_minus = pending["yPlus"], y
            gradient = (y_plus - y_minus) / (2.0 * c_k * delta)
            if self.probes > 2:
                gradients = pending.get("gradients", []) + [
                    [float(v) for v in gradient]
                ]
                if len(gradients) < self.probes // 2:
                    self.pending = {"gradients": gradients}
                    return
                gradient = np.mean(gradients, axis=0)
        self.k += 1
        a_k = self.gains.a_k(self.k)
        theta_next = self.box.project(self.theta - a_k * gradient)
        self.history.append(
            SPSAIteration(
                k=self.k,
                a_k=a_k,
                c_k=c_k,
                delta=delta,
                theta=self.theta,
                theta_plus=np.asarray(pending["thetaPlus"], dtype=float),
                theta_minus=theta_minus,
                y_plus=y_plus,
                y_minus=y_minus,
                gradient=gradient,
                theta_next=theta_next,
            )
        )
        self.theta = theta_next
        self.schedule.step()
        self.pending = None

    def discard(self) -> None:
        """Drop the pending iteration without a gradient step (a guarded
        round).  ρ still advances, as after an observed iteration."""
        self.pending = None
        self.schedule.step()

    def restart(self) -> None:
        """The §5.5 restart: k, θ and ρ return to their initial values.
        The RNG stream runs on, so the next Δ is not the seed's first."""
        self.theta = self.theta_initial.copy()
        self.k = 0
        self.history.clear()
        self.schedule.reset()
        self.pending = None

    def rho(self, cap: float) -> float:
        return min(self.schedule.value, float(cap))

    def checkpoint(self) -> dict:
        """θ, k, the initial point (restart target), the exact
        bit-generator state, ρ and the pending pair.  The history is
        explanatory output, never an input to a step, so it is not
        kept."""
        return {
            "spsa": {
                "k": int(self.k),
                "theta": [float(v) for v in self.theta],
                "thetaInitial": [float(v) for v in self.theta_initial],
                "rngState": self.rng.bit_generator.state,
            },
            "rho": self.schedule.checkpoint(),
            "pending": dict(self.pending) if self.pending else None,
        }

    def restore(self, state: dict) -> None:
        spsa = state["spsa"]
        self.k = int(spsa["k"])
        self.theta = np.asarray(spsa["theta"], dtype=float)
        self.theta_initial = np.asarray(spsa["thetaInitial"], dtype=float)
        self.rng.bit_generator.state = spsa["rngState"]
        self.history.clear()
        self.schedule.restore(state["rho"])
        pending = state.get("pending")
        self.pending = dict(pending) if pending else None


@register_tuner("bo")
class BOTuner(Tuner):
    """GP + expected-improvement minimizer over the scaled box (§6.4).

    The first ``INIT_POINTS`` proposals are a seeded Latin-hypercube
    design; every later one is the expected-improvement maximizer over
    ``CANDIDATES_PER_STEP`` uniform candidates, scored by a GP refit on
    all observations so far.
    """

    #: GP observation-noise variance.
    NOISE_VAR = 0.05
    #: RBF length scale per axis, as a fraction of the axis range.
    LENGTH_SCALE_FRAC = 0.2
    #: Latin-hypercube proposals before the GP takes over.
    INIT_POINTS = 5
    #: Uniform candidates scored by expected improvement per GP step.
    CANDIDATES_PER_STEP = 256

    def __init__(self, scaler: MinMaxScaler, seed: int = 0) -> None:
        super().__init__(scaler, seed)
        self.rng = np.random.default_rng(seed)
        #: Non-finite observations clamped to the divergence penalty.
        self.penalized = 0
        self._x: List[np.ndarray] = []
        self._y: List[float] = []
        self._initial_design = self._latin_hypercube(self.INIT_POINTS)
        self.instrument(NOOP_REGISTRY)

    def instrument(self, registry: MetricsRegistry) -> None:
        """Bind telemetry instruments (no-op registry by default)."""
        self._m_penalized = catalog.instrument(
            registry, "repro_tuner_penalized_total"
        )

    def _latin_hypercube(self, n: int) -> np.ndarray:
        """Seeded Latin-hypercube design over the box.

        Each axis's range is cut into ``n`` equal strata; a random
        permutation assigns every sample exactly one stratum per axis,
        and the point lands uniformly inside its stratum.  Every
        one-dimensional projection of the design therefore covers all
        ``n`` strata — the space-filling property plain uniform draws
        only achieve in expectation.
        """
        u = self.rng.uniform(size=(n, self.box.dim))
        design = np.empty((n, self.box.dim))
        for axis in range(self.box.dim):
            strata = self.rng.permutation(n)
            design[:, axis] = (strata + u[:, axis]) / n
        return self.box.lower + design * self.box.ranges

    def ask(self) -> np.ndarray:
        if len(self._x) < self.INIT_POINTS:
            return self._initial_design[len(self._x)].copy()
        gp = GaussianProcess(
            length_scales=self.box.ranges * self.LENGTH_SCALE_FRAC,
            signal_var=1.0,
            noise_var=self.NOISE_VAR,
        ).fit(np.array(self._x), np.array(self._y))
        cand = self.box.lower + self.rng.uniform(
            size=(self.CANDIDATES_PER_STEP, self.box.dim)
        ) * self.box.ranges
        mean, std = gp.predict(cand)
        ei = expected_improvement(mean, std, best=min(self._y))
        return cand[int(np.argmax(ei))]

    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        t = np.asarray(theta, dtype=float)
        if not self.box.contains(t):
            raise ValueError(f"theta {t} outside the feasible box")
        if not np.isfinite(objective):
            self.penalized += 1
            self._m_penalized.inc()
        self._x.append(t)
        self._y.append(clamp_objective(objective))

    def checkpoint(self) -> dict:
        return {
            "x": [[float(v) for v in x] for x in self._x],
            "y": [float(v) for v in self._y],
            "penalized": int(self.penalized),
            "initialDesign": [
                [float(v) for v in row] for row in self._initial_design
            ],
            "rngState": self.rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        self._x = [np.asarray(x, dtype=float) for x in state["x"]]
        self._y = [float(v) for v in state["y"]]
        self.penalized = int(state["penalized"])
        self._initial_design = np.asarray(
            state["initialDesign"], dtype=float
        )
        self.rng.bit_generator.state = state["rngState"]


@register_tuner("annealing")
class AnnealingTuner(Tuner):
    """Simulated annealing: accept regressions with ``exp(-Δ/T)``."""

    #: Starting temperature, in objective units.
    INITIAL_TEMPERATURE = 10.0
    #: Geometric cooling factor, applied per observation after the first.
    COOLING = 0.92
    #: Neighbour step standard deviation, as a fraction of each axis range.
    NEIGHBOUR_SCALE = 0.15

    def __init__(self, scaler: MinMaxScaler, seed: int = 0) -> None:
        super().__init__(scaler, seed)
        self.temperature = self.INITIAL_TEMPERATURE
        self.rng = np.random.default_rng(seed)
        self.current: Optional[np.ndarray] = None
        self.current_y: float = float("inf")
        self.accepted = 0

    def ask(self) -> np.ndarray:
        if self.current is None:
            return self.box.center()
        step = self.rng.normal(scale=self.NEIGHBOUR_SCALE * self.box.ranges)
        return self.box.project(self.current + step)

    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        y = clamp_objective(objective)
        candidate = np.asarray(theta, dtype=float)
        if self.current is None:
            self.current = candidate
            self.current_y = y
            return
        delta = y - self.current_y
        if delta <= 0 or self.rng.random() < np.exp(
            -delta / self.temperature
        ):
            self.current = candidate
            self.current_y = y
            self.accepted += 1
        self.temperature *= self.COOLING

    def checkpoint(self) -> dict:
        return {
            "current": (
                [float(v) for v in self.current]
                if self.current is not None
                else None
            ),
            "currentY": float(self.current_y),
            "temperature": float(self.temperature),
            "accepted": int(self.accepted),
            "rngState": self.rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        current = state["current"]
        self.current = (
            np.asarray(current, dtype=float) if current is not None else None
        )
        self.current_y = float(state["currentY"])
        self.temperature = float(state["temperature"])
        self.accepted = int(state["accepted"])
        self.rng.bit_generator.state = state["rngState"]


@register_tuner("random")
class RandomTuner(Tuner):
    """Uniform random search — the tournament's sanity floor."""

    def __init__(self, scaler: MinMaxScaler, seed: int = 0) -> None:
        super().__init__(scaler, seed)
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def ask(self) -> np.ndarray:
        self.draws += 1
        return self.box.lower + self.rng.uniform(
            size=self.box.dim
        ) * self.box.ranges

    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        pass  # memoryless: the pause rule keeps the incumbent

    def checkpoint(self) -> dict:
        return {
            "draws": int(self.draws),
            "rngState": self.rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        self.draws = int(state["draws"])
        self.rng.bit_generator.state = state["rngState"]


def grid_points(scaler: MinMaxScaler, points_per_axis: int) -> np.ndarray:
    """Cartesian grid over the scaled box, last axis varying fastest."""
    if points_per_axis < 2:
        raise ValueError("points_per_axis must be >= 2")
    box = scaler.scaled
    axes = [
        np.linspace(box.lower[d], box.upper[d], points_per_axis)
        for d in range(box.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@register_tuner("grid")
class GridTuner(Tuner):
    """Exhaustive grid enumeration; ``exhausted`` once the grid is done.

    The resolution adapts to dimensionality (5 points/axis on the
    paper's 2-axis space, 3 on the 4-axis tournament space) so a
    budgeted run still sees every region of the box.
    """

    def __init__(self, scaler: MinMaxScaler, seed: int = 0) -> None:
        super().__init__(scaler, seed)
        self.points = grid_points(scaler, 5 if self.box.dim <= 2 else 3)
        self.index = 0

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.points)

    def ask(self) -> np.ndarray:
        if self.exhausted:
            raise RuntimeError("grid exhausted")
        theta = self.points[self.index].copy()
        self.index += 1
        return theta

    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        pass  # non-adaptive: enumeration order is fixed up front

    def checkpoint(self) -> dict:
        return {"index": int(self.index)}

    def restore(self, state: dict) -> None:
        self.index = int(state["index"])

"""Generic Simultaneous Perturbation Stochastic Approximation optimizer.

Implements the SPSA method of §4.2.3 / §5.3 as a reusable component:
NoStop drives it against the live streaming system, tests drive it
against synthetic noisy functions, and the Fig. 8 benchmark drives it
head-to-head with Bayesian optimization.

Per iteration k (Algorithm 1):

1. draw Δ_k from the perturbation distribution (symmetric Bernoulli ±1);
2. evaluate ``y(θ_k + c_k Δ_k)`` and ``y(θ_k − c_k Δ_k)`` —
   *two measurements regardless of dimension*, SPSA's key economy;
3. form the gradient estimate
   ``ĝ_k = (y⁺ − y⁻) / (2 c_k Δ_k)`` (elementwise division);
4. step ``θ_{k+1} = checkBound(θ_k − a_k ĝ_k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .bounds import Box
from .gains import GainSchedule
from .perturbation import BernoulliPerturbation, PerturbationGenerator

#: An objective measurement: maps a parameter vector to a noisy scalar.
Measure = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class SPSAIteration:
    """Full record of one SPSA iteration (for Fig. 6-style evolution plots)."""

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


class SPSAOptimizer:
    """Stateful SPSA minimizer over a box-constrained domain."""

    def __init__(
        self,
        gains: GainSchedule,
        box: Box,
        theta_initial: Sequence[float],
        perturbation: Optional[PerturbationGenerator] = None,
        seed: int = 0,
        validate_gains: bool = True,
    ) -> None:
        if validate_gains:
            gains.validate()
        self.gains = gains
        self.box = box
        self.perturbation = perturbation or BernoulliPerturbation()
        self.rng = np.random.default_rng(seed)
        self._theta_initial = box.project(theta_initial)
        self.theta = self._theta_initial.copy()
        self.k = 0
        self.history: List[SPSAIteration] = []

    @property
    def dim(self) -> int:
        """The ``getDimension(θ)`` of Table 1."""
        return self.box.dim

    def reset(self, theta_initial: Optional[Sequence[float]] = None) -> None:
        """The ``resetCoefficient()`` of Table 1: k = 0, x = θ_initial."""
        if theta_initial is not None:
            self._theta_initial = self.box.project(theta_initial)
        self.theta = self._theta_initial.copy()
        self.k = 0
        self.history.clear()

    def checkpoint(self) -> dict:
        """JSON-safe snapshot of the optimizer's full resumable state.

        Covers the iterate θ, the gain-schedule position k, the initial
        point (reset target), and the exact bit-generator state — a
        restored optimizer draws the identical perturbation sequence the
        original would have.  The iteration history is *not* serialized:
        it is explanatory output, never an input to future steps.
        """
        return {
            "k": int(self.k),
            "theta": [float(v) for v in self.theta],
            "thetaInitial": [float(v) for v in self._theta_initial],
            "rngState": self.rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        """Resume from a :meth:`checkpoint` snapshot, bit-exactly."""
        self.k = int(state["k"])
        self.theta = np.asarray(state["theta"], dtype=float)
        self._theta_initial = np.asarray(state["thetaInitial"], dtype=float)
        self.rng.bit_generator.state = state["rngState"]
        self.history.clear()

    def propose(self) -> tuple:
        """Generate this iteration's perturbed probe pair (θ⁺, θ⁻, Δ, c_k).

        Split from :meth:`apply_measurements` so callers that must
        interleave live system work between the two probe runs (NoStop)
        can drive the iteration in stages.
        """
        k = self.k + 1
        c_k = self.gains.c_k(k)
        delta = self.perturbation.sample(self.dim, self.rng)
        self.perturbation.validate_sample(delta)
        theta_plus = self.box.project(self.theta + c_k * delta)
        theta_minus = self.box.project(self.theta - c_k * delta)
        return theta_plus, theta_minus, delta, c_k

    def apply_measurements(
        self,
        theta_plus: np.ndarray,
        theta_minus: np.ndarray,
        delta: np.ndarray,
        c_k: float,
        y_plus: float,
        y_minus: float,
    ) -> SPSAIteration:
        """Complete the iteration begun by :meth:`propose`."""
        if not np.isfinite(y_plus) or not np.isfinite(y_minus):
            raise ValueError(
                f"objective measurements must be finite, got "
                f"y+={y_plus}, y-={y_minus}"
            )
        self.k += 1
        a_k = self.gains.a_k(self.k)
        gradient = (y_plus - y_minus) / (2.0 * c_k * delta)
        theta_next = self.box.project(self.theta - a_k * gradient)
        record = SPSAIteration(
            k=self.k,
            a_k=a_k,
            c_k=c_k,
            delta=delta,
            theta=self.theta.copy(),
            theta_plus=np.asarray(theta_plus, dtype=float),
            theta_minus=np.asarray(theta_minus, dtype=float),
            y_plus=float(y_plus),
            y_minus=float(y_minus),
            gradient=gradient,
            theta_next=theta_next,
        )
        self.theta = theta_next
        self.history.append(record)
        return record

    def step(self, measure: Measure) -> SPSAIteration:
        """One full iteration against a measurement callable."""
        theta_plus, theta_minus, delta, c_k = self.propose()
        y_plus = float(measure(theta_plus))
        y_minus = float(measure(theta_minus))
        return self.apply_measurements(
            theta_plus, theta_minus, delta, c_k, y_plus, y_minus
        )

    def minimize(
        self,
        measure: Measure,
        iterations: int,
        callback: Optional[Callable[[SPSAIteration], None]] = None,
    ) -> np.ndarray:
        """Run ``iterations`` steps; returns the final θ estimate."""
        if iterations < 0:
            raise ValueError("iterations must be >= 0")
        for _ in range(iterations):
            record = self.step(measure)
            if callback is not None:
                callback(record)
        return self.theta.copy()

    @property
    def total_measurements(self) -> int:
        """Objective evaluations consumed so far (2 per iteration)."""
        return 2 * len(self.history)

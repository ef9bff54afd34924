"""SPSA variants from the stochastic-approximation literature.

The paper uses the standard two-measurement SPSA (Spall 1998).  Two
well-known variants matter for the configuration-tuning setting and are
provided for ablation and for users with different measurement budgets:

* **One-measurement SPSA** (Spall 1997): gradient estimate
  ``ĝ_k = y(θ + c_k Δ) / c_k · Δ^{-1}`` — *half* the live configuration
  changes per iteration, at the cost of a higher-variance estimate.
  Attractive when every configuration change disturbs production.
* **Gradient-averaged SPSA**: average ``m`` independent two-measurement
  estimates per iteration (``2m`` changes) — lower-variance steps for
  very noisy systems, at proportionally higher measurement cost.

Both share the gain sequences, perturbation distributions, and bound
projection of the standard optimizer.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .bounds import Box
from .gains import GainSchedule
from .perturbation import PerturbationGenerator
from .spsa import Measure, SPSAIteration, SPSAOptimizer


class OneMeasurementSPSA(SPSAOptimizer):
    """SPSA with a single objective measurement per iteration.

    The gradient estimate is unbiased up to O(c_k) (vs O(c_k²) for the
    two-sided form) with substantially higher variance; convergence
    conditions are unchanged.
    """

    def step(self, measure: Measure) -> SPSAIteration:
        theta_plus, _theta_minus, delta, c_k = self.propose()
        y_plus = float(measure(theta_plus))
        if not np.isfinite(y_plus):
            raise ValueError(f"objective measurement must be finite, got {y_plus}")
        self.k += 1
        a_k = self.gains.a_k(self.k)
        gradient = y_plus / (c_k * delta)
        theta_next = self.box.project(self.theta - a_k * gradient)
        record = SPSAIteration(
            k=self.k,
            a_k=a_k,
            c_k=c_k,
            delta=delta,
            theta=self.theta.copy(),
            theta_plus=np.asarray(theta_plus, dtype=float),
            theta_minus=self.theta.copy(),  # unused probe
            y_plus=y_plus,
            y_minus=float("nan"),
            gradient=gradient,
            theta_next=theta_next,
        )
        self.theta = theta_next
        self.history.append(record)
        return record

    @property
    def total_measurements(self) -> int:
        """One measurement per iteration."""
        return len(self.history)


class AveragedSPSA(SPSAOptimizer):
    """SPSA averaging ``m`` simultaneous-perturbation gradient estimates.

    Variance of the gradient estimate drops by 1/m per iteration in
    exchange for ``2m`` measurements; useful when measurement noise, not
    measurement cost, limits convergence.
    """

    def __init__(
        self,
        gains: GainSchedule,
        box: Box,
        theta_initial: Sequence[float],
        num_estimates: int = 2,
        perturbation: Optional[PerturbationGenerator] = None,
        seed: int = 0,
        validate_gains: bool = True,
    ) -> None:
        if num_estimates < 1:
            raise ValueError(f"num_estimates must be >= 1, got {num_estimates}")
        super().__init__(
            gains=gains,
            box=box,
            theta_initial=theta_initial,
            perturbation=perturbation,
            seed=seed,
            validate_gains=validate_gains,
        )
        self.num_estimates = num_estimates
        self._measurements = 0

    def step(self, measure: Measure) -> SPSAIteration:
        k = self.k + 1
        c_k = self.gains.c_k(k)
        gradients = []
        last = None
        for _ in range(self.num_estimates):
            delta = self.perturbation.sample(self.dim, self.rng)
            self.perturbation.validate_sample(delta)
            theta_plus = self.box.project(self.theta + c_k * delta)
            theta_minus = self.box.project(self.theta - c_k * delta)
            y_plus = float(measure(theta_plus))
            y_minus = float(measure(theta_minus))
            if not (np.isfinite(y_plus) and np.isfinite(y_minus)):
                raise ValueError("objective measurements must be finite")
            gradients.append((y_plus - y_minus) / (2.0 * c_k * delta))
            last = (delta, theta_plus, theta_minus, y_plus, y_minus)
            self._measurements += 2
        gradient = np.mean(gradients, axis=0)
        self.k = k
        a_k = self.gains.a_k(self.k)
        theta_next = self.box.project(self.theta - a_k * gradient)
        delta, theta_plus, theta_minus, y_plus, y_minus = last
        record = SPSAIteration(
            k=self.k,
            a_k=a_k,
            c_k=c_k,
            delta=delta,
            theta=self.theta.copy(),
            theta_plus=theta_plus,
            theta_minus=theta_minus,
            y_plus=y_plus,
            y_minus=y_minus,
            gradient=gradient,
            theta_next=theta_next,
        )
        self.theta = theta_next
        self.history.append(record)
        return record

    @property
    def total_measurements(self) -> int:
        return self._measurements

    def reset(self, theta_initial: Optional[Sequence[float]] = None) -> None:
        super().reset(theta_initial)
        self._measurements = 0

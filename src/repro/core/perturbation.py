"""Simultaneous perturbation direction generators.

SPSA's convergence requires each component Δ_ki to be mutually
independent, symmetrically distributed around zero, uniformly bounded,
and — critically — to have a *finite inverse moment* E|Δ_ki^{-1}|
(paper §4.2.3, Condition B.6'').  The symmetric Bernoulli ±1 distribution
is the standard (and the paper's) choice; a Gaussian would violate the
inverse-moment condition, which is why it is deliberately absent here.

A segmented-uniform alternative is provided for the perturbation
ablation bench.
"""

from __future__ import annotations

import abc

import numpy as np


class PerturbationGenerator(abc.ABC):
    """Generates the random direction vector Δ_k."""

    @abc.abstractmethod
    def sample(self, dim: int, rng: np.random.Generator) -> np.ndarray:
        """Return a Δ vector of length ``dim`` (the ``getDelta(n)`` of
        Table 1)."""

    def validate_sample(self, delta: np.ndarray) -> None:
        """Check the B.6'' requirements on a sampled vector."""
        if np.any(delta == 0):
            raise ValueError("perturbation components must be nonzero")
        if not np.all(np.isfinite(1.0 / delta)):
            raise ValueError("perturbation components must have finite inverse")


class BernoulliPerturbation(PerturbationGenerator):
    """Symmetric Bernoulli ±``MAGNITUDE`` with probability 1/2 each.

    The paper's choice (§5.3.1): "each component of Δ_k is independently
    generated from a zero-mean symmetric Bernoulli ±1 distribution".
    """

    MAGNITUDE = 1.0

    def sample(self, dim: int, rng: np.random.Generator) -> np.ndarray:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        signs = rng.integers(0, 2, size=dim) * 2 - 1
        return signs.astype(float) * self.MAGNITUDE


class SegmentedUniformPerturbation(PerturbationGenerator):
    """Uniform on ±[lo, hi] (excluding a neighborhood of zero).

    A valid SPSA perturbation (symmetric, bounded, finite inverse moment
    because the support excludes zero) used to ablate the Bernoulli
    choice.
    """

    def __init__(self, lo: float = 0.5, hi: float = 1.5) -> None:
        if lo <= 0 or hi <= lo:
            raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
        self.lo = lo
        self.hi = hi

    def sample(self, dim: int, rng: np.random.Generator) -> np.ndarray:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        mags = rng.uniform(self.lo, self.hi, size=dim)
        signs = rng.integers(0, 2, size=dim) * 2 - 1
        return signs * mags

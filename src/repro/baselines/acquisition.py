"""Acquisition function for the Bayesian-optimization baseline.

Expected improvement: the standard choice for noisy hyper-parameter
tuning, and the one implied by the paper's "Bayesian Optimization is
among the most commonly used algorithms in Random Search".  Pure-NumPy
normal PDF/CDF via ``erf``.
"""

from __future__ import annotations

import math

import numpy as np


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    # vectorized via numpy's erf-free path: 0.5*(1+erf(z/sqrt(2)))
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


def expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best: float,
    xi: float = 0.01,
) -> np.ndarray:
    """EI for *minimization*: E[max(best − f(x) − ξ, 0)].

    ``xi`` trades exploration for exploitation; a small positive value
    avoids premature convergence under measurement noise.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.shape != std.shape:
        raise ValueError("mean and std must have matching shapes")
    if np.any(std < 0):
        raise ValueError("std must be >= 0")
    improvement = best - mean - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improvement / std, 0.0)
    ei = improvement * _norm_cdf(z) + std * _norm_pdf(z)
    # Zero-variance points improve deterministically or not at all.
    ei = np.where(std > 0, ei, np.maximum(improvement, 0.0))
    return np.maximum(ei, 0.0)

"""Configuration-space bounds and scaling.

§5.1: the feasible ranges are derived from cluster capacity (executors)
and application requirements (batch interval), and "we apply a scale
function (e.g., min-max normalization) to normalize parameters into the
same range" — the paper maps both parameters to [1, 20] (§6.2.1).

:class:`Box` implements ``checkBound`` (Table 1): clipping to the box.
:class:`MinMaxScaler` maps between physical units (seconds, executor
counts) and the common scaled range SPSA operates in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned feasible region with clipping projection."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower: Sequence[float], upper: Sequence[float]) -> None:
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if np.any(lo >= hi):
            raise ValueError(f"each lower bound must be < upper bound: {lo} vs {hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def ranges(self) -> np.ndarray:
        return self.upper - self.lower

    def project(self, theta: Sequence[float]) -> np.ndarray:
        """The ``checkBound(θ)`` of Table 1: clip into the box."""
        t = np.asarray(theta, dtype=float)
        if t.shape != self.lower.shape:
            raise ValueError(
                f"theta has dimension {t.shape}, box has {self.lower.shape}"
            )
        return np.clip(t, self.lower, self.upper)

    def contains(self, theta: Sequence[float], atol: float = 1e-9) -> bool:
        t = np.asarray(theta, dtype=float)
        return bool(
            np.all(t >= self.lower - atol) and np.all(t <= self.upper + atol)
        )

    def center(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0


class MinMaxScaler:
    """Invertible affine map between a physical box and a scaled box.

    SPSA steps live in the scaled box (all axes share one range, so one
    gain ``a`` suits every parameter); configurations applied to the
    system live in the physical box.
    """

    def __init__(self, physical: Box, scaled: Box) -> None:
        if physical.dim != scaled.dim:
            raise ValueError(
                f"dimension mismatch: physical {physical.dim} vs scaled {scaled.dim}"
            )
        self.physical = physical
        self.scaled = scaled

    def to_physical(self, theta_scaled: Sequence[float]) -> np.ndarray:
        t = np.asarray(theta_scaled, dtype=float)
        frac = (t - self.scaled.lower) / self.scaled.ranges
        return self.physical.lower + frac * self.physical.ranges


def _space(lower: Sequence[float], upper: Sequence[float]) -> MinMaxScaler:
    """Physical bounds ``[lower, upper]``, every axis scaled to the
    paper's common range [1, 20] (§6.2.1)."""
    dim = len(lower)
    return MinMaxScaler(Box(lower, upper), Box([1.0] * dim, [20.0] * dim))


def paper_configuration_space(max_executors: int = 20) -> MinMaxScaler:
    """The §6.2.1 configuration space.

    Physical axes are ordered ``(batch interval seconds, executors)``:
    1-40 s and 1 to ``max_executors``.
    """
    return _space([1.0, 1.0], [40.0, float(max_executors)])


def multi_parameter_space() -> MinMaxScaler:
    """Three-axis configuration space: interval (1-40 s), executors
    (1-20), partitions (8-120).

    Implements the paper's future-work extension (§7): "the SPSA
    algorithm is able to optimize multiple parameters simultaneously
    without additional overhead" — the per-stage partition count is the
    natural third tunable (too few partitions starve executor cores, too
    many pay task-dispatch overhead).
    """
    return _space([1.0, 1.0, 8.0], [40.0, 20.0, 120.0])


def full_parameter_space() -> MinMaxScaler:
    """Four-axis configuration space: interval (1-40 s), executors
    (2-16), partitions (8-96), executor cores (1-2).

    The tuner tournament's θ: beyond the paper's two parameters and the
    §7 partitions extension, per-executor core count is the fourth
    tunable (arXiv:2309.01901 tunes executor sizing online).  Executor
    and core bounds must jointly fit the cluster (16 two-core executors
    in the Table 2 cluster's 36 worker cores), which is why the
    executor bound is tighter than the 2-axis space's.
    """
    return _space([1.0, 2.0, 8.0, 1.0], [40.0, 16.0, 96.0, 2.0])

"""Statistical helpers for experiment post-processing.

Every Fig. 7 / Fig. 8 style result in the paper is "repeat five times,
report mean ± standard deviation"; these helpers centralize that pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Mean ± std summary of repeated measurements."""

    mean: float
    std: float
    n: int
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.std:.2f} (n={self.n})"


def summarize(values: Sequence[float]) -> Summary:
    """Mean/std/min/max of a repeat set (ddof=1 when possible)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sequence")
    if np.any(~np.isfinite(arr)):
        raise ValueError("values must be finite")
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return Summary(
        mean=float(np.mean(arr)),
        std=std,
        n=int(arr.size),
        minimum=float(np.min(arr)),
        maximum=float(np.max(arr)),
    )


def improvement_factor(baseline: float, improved: float) -> float:
    """How many times smaller ``improved`` is than ``baseline``."""
    if improved <= 0:
        raise ValueError("improved value must be positive")
    if baseline < 0:
        raise ValueError("baseline must be >= 0")
    return baseline / improved

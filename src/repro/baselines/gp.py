"""Gaussian-process regression, from scratch on NumPy.

The Bayesian-optimization baseline of §6.4 needs a surrogate model; this
is a standard zero-mean GP with an anisotropic RBF (squared-exponential)
kernel and observation noise, fitted by Cholesky factorization.  Inputs
are normalized by the caller (the optimizer works in NoStop's scaled
configuration space, so length scales are comparable across axes).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def rbf_kernel(
    x1: np.ndarray,
    x2: np.ndarray,
    length_scales: np.ndarray,
    signal_var: float,
) -> np.ndarray:
    """Squared-exponential kernel matrix between two point sets."""
    a = np.asarray(x1, dtype=float) / length_scales
    b = np.asarray(x2, dtype=float) / length_scales
    sq = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return signal_var * np.exp(-0.5 * np.maximum(sq, 0.0))


class GaussianProcess:
    """GP posterior over noisy scalar observations.

    Parameters
    ----------
    length_scales:
        Per-dimension RBF length scales (scalar broadcasts).
    signal_var:
        Kernel amplitude (prior variance of the latent function).
    noise_var:
        Observation noise variance — essential here, since every y(θ) is
        a noise-corrupted streaming measurement.
    """

    def __init__(
        self,
        length_scales: Sequence[float] = (1.0,),
        signal_var: float = 1.0,
        noise_var: float = 1e-2,
    ) -> None:
        ls = np.atleast_1d(np.asarray(length_scales, dtype=float))
        if np.any(ls <= 0):
            raise ValueError("length scales must be positive")
        if signal_var <= 0:
            raise ValueError("signal_var must be positive")
        if noise_var < 0:
            raise ValueError("noise_var must be >= 0")
        self.length_scales = ls
        self.signal_var = float(signal_var)
        self.noise_var = float(noise_var)
        self._x: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._chol: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None

    @property
    def fitted(self) -> bool:
        return self._x is not None

    def fit(self, x: Sequence[Sequence[float]], y: Sequence[float]) -> "GaussianProcess":
        """Condition the GP on observations (standardizing y internally)."""
        xa = np.atleast_2d(np.asarray(x, dtype=float))
        ya = np.asarray(y, dtype=float)
        if len(xa) != len(ya):
            raise ValueError(f"{len(xa)} inputs but {len(ya)} observations")
        if len(xa) == 0:
            raise ValueError("need at least one observation")
        if self.length_scales.size == 1 and xa.shape[1] > 1:
            self.length_scales = np.full(xa.shape[1], float(self.length_scales[0]))
        if xa.shape[1] != self.length_scales.size:
            raise ValueError(
                f"input dimension {xa.shape[1]} != length_scales "
                f"dimension {self.length_scales.size}"
            )
        self._y_mean = float(np.mean(ya))
        self._y_std = float(np.std(ya)) or 1.0
        yn = (ya - self._y_mean) / self._y_std

        k = rbf_kernel(xa, xa, self.length_scales, self.signal_var)
        k[np.diag_indices_from(k)] += self.noise_var + 1e-10
        self._chol = np.linalg.cholesky(k)
        self._alpha = np.linalg.solve(
            self._chol.T, np.linalg.solve(self._chol, yn)
        )
        self._x = xa
        return self

    def predict(
        self, x: Sequence[Sequence[float]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points."""
        if not self.fitted:
            raise RuntimeError("predict() before fit()")
        xq = np.atleast_2d(np.asarray(x, dtype=float))
        ks = rbf_kernel(xq, self._x, self.length_scales, self.signal_var)
        mean_n = ks @ self._alpha
        v = np.linalg.solve(self._chol, ks.T)
        var_n = self.signal_var - np.sum(v**2, axis=0)
        var_n = np.maximum(var_n, 1e-12)
        mean = mean_n * self._y_std + self._y_mean
        std = np.sqrt(var_n) * self._y_std
        return mean, std

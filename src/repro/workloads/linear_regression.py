"""Streaming Linear Regression workload.

Mirrors Spark MLlib's ``StreamingLinearRegressionWithSGD``: mini-batch
SGD on squared loss, model persisted across batches.  Lighter per record
than logistic regression and fed an order of magnitude faster in the
paper ([80k, 120k] records/s).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.datagen.records import FEATURE_DIM, LabeledPoint

from .base import Workload
from .cost_models import LINEAR_REGRESSION_COSTS


class StreamingLinearRegression(Workload):
    """Online least-squares regressor trained with mini-batch SGD."""

    name = "linear_regression"
    payload_kind = "regression_points"
    COST_MODEL = LINEAR_REGRESSION_COSTS
    #: Feature dimension of the model.
    DIM = FEATURE_DIM
    #: SGD step size and passes over each batch.
    STEP_SIZE = 0.1
    EPOCHS = 3

    def __init__(self) -> None:
        super().__init__()
        self.weights = np.zeros(self.DIM)
        self.batches_trained = 0

    def run_kernel(self, payloads: Sequence[LabeledPoint]) -> Dict[str, float]:
        """Train on one batch; returns mean-squared error on the batch."""
        if not payloads:
            return {"mse": float("nan"), "n": 0}
        x = np.array([p.features for p in payloads], dtype=float)
        y = np.array([p.label for p in payloads], dtype=float)
        if x.shape[1] != self.DIM:
            raise ValueError(
                f"payload dimension {x.shape[1]} != model dimension {self.DIM}"
            )
        n = len(y)
        for _ in range(self.EPOCHS):
            resid = x @ self.weights - y
            grad = x.T @ resid / n
            self.weights -= self.STEP_SIZE * grad
        resid = x @ self.weights - y
        self.batches_trained += 1
        return {"mse": float(np.mean(resid**2)), "n": n}

    def predict(self, features: Sequence[Sequence[float]]) -> np.ndarray:
        """Point predictions for a feature matrix."""
        return np.asarray(features, dtype=float) @ self.weights

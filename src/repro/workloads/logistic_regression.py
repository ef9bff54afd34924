"""Streaming Logistic Regression workload.

Mirrors Spark MLlib's ``StreamingLogisticRegressionWithSGD``: every batch
runs several SGD epochs over the batch's labeled points to update a
shared model.  The stage chain is parse → gradient (iterated) → update;
per-batch iteration counts vary, which makes this the noisiest workload
in the paper's Fig. 6.

The kernel is a genuine NumPy SGD implementation operating on
:class:`~repro.datagen.records.LabeledPoint` payloads.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.datagen.records import FEATURE_DIM, LabeledPoint

from .base import Workload
from .cost_models import LOGISTIC_REGRESSION_COSTS


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class StreamingLogisticRegression(Workload):
    """Online binary classifier trained with mini-batch SGD."""

    name = "logistic_regression"
    payload_kind = "labeled_points"
    COST_MODEL = LOGISTIC_REGRESSION_COSTS
    #: Feature dimension of the model.
    DIM = FEATURE_DIM
    #: SGD step size and passes over each batch.
    STEP_SIZE = 0.5
    EPOCHS = 5

    def __init__(self) -> None:
        super().__init__()
        self.weights = np.zeros(self.DIM)
        self.batches_trained = 0

    def run_kernel(self, payloads: Sequence[LabeledPoint]) -> Dict[str, float]:
        """Train on one batch of labeled points; returns loss/accuracy.

        Updates the persistent model (streaming semantics: the model
        carries over between batches).
        """
        if not payloads:
            return {"loss": float("nan"), "accuracy": float("nan"), "n": 0}
        x = np.array([p.features for p in payloads], dtype=float)
        y = np.array([p.label for p in payloads], dtype=float)
        if x.shape[1] != self.DIM:
            raise ValueError(
                f"payload dimension {x.shape[1]} != model dimension {self.DIM}"
            )
        n = len(y)
        for _ in range(self.EPOCHS):
            p = _sigmoid(x @ self.weights)
            grad = x.T @ (p - y) / n
            self.weights -= self.STEP_SIZE * grad
        p = _sigmoid(x @ self.weights)
        eps = 1e-12
        loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
        accuracy = float(np.mean((p > 0.5) == (y > 0.5)))
        self.batches_trained += 1
        return {"loss": loss, "accuracy": accuracy, "n": n}

    def predict(self, features: Sequence[Sequence[float]]) -> np.ndarray:
        """Class probabilities for a feature matrix."""
        x = np.asarray(features, dtype=float)
        return _sigmoid(x @ self.weights)

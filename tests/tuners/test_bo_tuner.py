"""BO tuner on synthetic objectives, without a live system."""

import numpy as np
import pytest

from repro.core.bounds import Box, MinMaxScaler
from repro.tuners import make_tuner
from repro.tuners.base import DIVERGENCE_PENALTY


def _scaler(dim: int, upper: float) -> MinMaxScaler:
    box = Box([0.0] * dim, [upper] * dim)
    return MinMaxScaler(box, box)


class TestBOTunerSynthetic:
    def test_ask_within_box(self):
        bo = make_tuner("bo", _scaler(2, 10.0), seed=0)
        for _ in range(8):
            theta = bo.ask()
            assert bo.box.contains(theta)
            bo.observe(theta, float(np.sum(theta**2)))

    def test_converges_toward_minimum_of_quadratic(self):
        bo = make_tuner("bo", _scaler(2, 10.0), seed=1)
        target = np.array([3.0, 7.0])
        rng = np.random.default_rng(1)
        for _ in range(30):
            theta = bo.ask()
            y = float(np.sum((theta - target) ** 2) + rng.normal(0, 0.1))
            bo.observe(theta, y)
        state = bo.checkpoint()
        best = np.asarray(state["x"][int(np.argmin(state["y"]))])
        assert np.linalg.norm(best - target) < 2.0

    def test_observe_outside_box_rejected(self):
        bo = make_tuner("bo", _scaler(1, 1.0), seed=0)
        with pytest.raises(ValueError):
            bo.observe(np.array([2.0]), 1.0)

    def test_observe_nonfinite_clamped_to_penalty(self):
        # A diverged run yields an unbounded delay; the tuner must
        # absorb it as a finite penalty, not crash the search.
        bo = make_tuner("bo", _scaler(1, 1.0), seed=0)
        bo.observe(np.array([0.5]), float("inf"))
        assert bo.penalized == 1
        assert bo.checkpoint()["y"] == [DIVERGENCE_PENALTY]

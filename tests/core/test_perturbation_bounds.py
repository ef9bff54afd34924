"""Unit tests for perturbation generators and configuration bounds."""

import numpy as np
import pytest

from repro.core.bounds import Box, MinMaxScaler, paper_configuration_space
from repro.core.perturbation import (
    BernoulliPerturbation,
    SegmentedUniformPerturbation,
)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestBernoulliPerturbation:
    def test_components_are_plus_minus_one(self, rng):
        gen = BernoulliPerturbation()
        for _ in range(20):
            delta = gen.sample(2, rng)
            assert set(np.abs(delta)) == {1.0}

    def test_symmetric_mean(self, rng):
        gen = BernoulliPerturbation()
        draws = np.array([gen.sample(1, rng)[0] for _ in range(20_000)])
        assert abs(draws.mean()) < 0.02

    def test_magnitude_scales(self, rng):
        class Wide(BernoulliPerturbation):
            MAGNITUDE = 2.5

        delta = Wide().sample(3, rng)
        assert set(np.abs(delta)) == {2.5}

    def test_validate_sample_accepts_own_output(self, rng):
        gen = BernoulliPerturbation()
        gen.validate_sample(gen.sample(4, rng))

    def test_validate_sample_rejects_zero(self):
        with pytest.raises(ValueError):
            BernoulliPerturbation().validate_sample(np.array([1.0, 0.0]))

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            BernoulliPerturbation().sample(0, rng)


class TestSegmentedUniform:
    def test_support_excludes_zero(self, rng):
        gen = SegmentedUniformPerturbation(lo=0.5, hi=1.5)
        for _ in range(50):
            delta = gen.sample(2, rng)
            assert np.all(np.abs(delta) >= 0.5)
            assert np.all(np.abs(delta) <= 1.5)

    def test_invalid_support_rejected(self):
        with pytest.raises(ValueError):
            SegmentedUniformPerturbation(lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            SegmentedUniformPerturbation(lo=1.0, hi=0.5)


class TestBox:
    def test_project_clips(self):
        box = Box([0.0, 0.0], [10.0, 5.0])
        assert np.allclose(box.project([12.0, -1.0]), [10.0, 0.0])
        assert np.allclose(box.project([3.0, 2.0]), [3.0, 2.0])

    def test_contains(self):
        box = Box([0.0], [1.0])
        assert box.contains([0.5])
        assert not box.contains([1.5])

    def test_center(self):
        box = Box([0.0, 10.0], [10.0, 20.0])
        assert np.allclose(box.center(), [5.0, 15.0])

    def test_dimension_mismatch_rejected(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            box.project([0.5])

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            Box([1.0], [1.0])


class TestMinMaxScaler:
    def test_roundtrip(self):
        # to_physical inverts the min-max map from physical to scaled.
        scaler = paper_configuration_space()
        for phys in ([1.0, 1.0], [40.0, 20.0], [10.0, 10.0], [23.5, 7.0]):
            frac = (np.asarray(phys) - scaler.physical.lower) / (
                scaler.physical.ranges
            )
            scaled = scaler.scaled.lower + frac * scaler.scaled.ranges
            assert np.allclose(scaler.to_physical(scaled), phys)

    def test_paper_space_maps_to_common_range(self):
        # §6.2.1: both parameters scaled into [1, 20].
        scaler = paper_configuration_space()
        assert np.allclose(scaler.to_physical([1.0, 1.0]), [1.0, 1.0])
        assert np.allclose(scaler.to_physical([20.0, 20.0]), [40.0, 20.0])

    def test_executor_axis_is_identity(self):
        scaler = paper_configuration_space()
        physical = scaler.to_physical([10.0, 13.0])
        assert physical[1] == pytest.approx(13.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MinMaxScaler(Box([0.0], [1.0]), Box([0.0, 0.0], [1.0, 1.0]))

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            paper_configuration_space(max_executors=1)

"""Unit tests for systematic gain selection (§5.6 / future work)."""

import pytest

from repro.core.bounds import Box, paper_configuration_space
from repro.core.tuning import suggest_gains


class TestSuggestGains:
    def test_a_is_half_the_range(self):
        # §5.6: "a ... is recommended to be set as half of the
        # configuration range".
        scaler = paper_configuration_space()
        gains = suggest_gains(scaler.scaled)
        assert gains.a == pytest.approx(19.0 / 2.0)

    def test_c_tracks_measurement_std(self):
        gains = suggest_gains(Box([1.0, 1.0], [20.0, 20.0]), y_std=2.0)
        assert gains.c == pytest.approx(2.0)

    def test_c_clipped_to_sane_fraction(self):
        box = Box([1.0, 1.0], [20.0, 20.0])
        tiny = suggest_gains(box, y_std=1e-9)
        huge = suggest_gains(box, y_std=1e9)
        assert tiny.c >= 0.02 * 19.0
        assert huge.c <= 0.5 * 19.0

    def test_A_small_for_short_horizons(self):
        # Paper's empirical study: A = 1.
        gains = suggest_gains(Box([1.0], [20.0]), expected_iterations=15)
        assert gains.A == 1.0

    def test_A_ten_percent_of_long_horizons(self):
        gains = suggest_gains(Box([1.0], [20.0]), expected_iterations=500)
        assert gains.A == pytest.approx(50.0)

    def test_suggested_gains_are_convergent(self):
        gains = suggest_gains(Box([1.0, 1.0], [20.0, 20.0]), y_std=1.5)
        gains.validate()

    def test_invalid_args(self):
        box = Box([1.0], [20.0])
        with pytest.raises(ValueError):
            suggest_gains(box, expected_iterations=0)
        with pytest.raises(ValueError):
            suggest_gains(box, y_std=0.0)

"""Tests for the BO / random-search / grid-search tuners on a live system.

Each runs through the shared driving loop
(``NoStopController.run_until_pause``), so the pause rule ranks its
picks: stable configurations first, then by objective.
"""

import numpy as np

from repro.core.nostop import NoStopController
from repro.core.pause import PauseRule
from repro.experiments.common import build_experiment, run_search
from repro.tuners import make_tuner
from repro.tuners.adapters import grid_points


def exhaustive_grid(setup):
    """An unhardened controller driving the 5x5 grid under a pause rule
    over all 25 points, so the rule cannot fire before the grid ends."""
    return NoStopController(
        setup.system, setup.scaler, pause_rule=PauseRule(n_best=25),
        harden=False, tuner=make_tuner("grid", setup.scaler),
    )


class TestBOAgainstLiveSystem:
    def test_run_reports_fig8_axes(self):
        setup = build_experiment("wordcount", seed=2)
        report = run_search(
            setup, "bo", seed=2, max_evaluations=15, confirm=True
        )
        assert 1 <= report.evaluations == len(report.evaluated) <= 15
        assert report.search_time > 0
        assert np.isfinite(report.best_delay)
        assert report.best_theta in {e.theta for e in report.evaluated}

    def test_finds_reasonable_config(self):
        setup = build_experiment("wordcount", seed=3)
        report = run_search(
            setup, "bo", seed=3, max_evaluations=25, confirm=True
        )
        # Default config delay is >= 20 s; BO must do much better.
        assert report.best_delay < 15.0


class TestRandomSearch:
    def test_explores_and_reports(self):
        setup = build_experiment("wordcount", seed=4)
        report = run_search(setup, "random", seed=4, max_evaluations=12)
        assert report.evaluations <= 12
        ranked = min(report.evaluated, key=lambda e: e.sort_key)
        assert report.best_theta == ranked.theta
        assert report.search_time > 0

    def test_deterministic_given_seed(self):
        thetas = []
        for _ in range(2):
            setup = build_experiment("wordcount", seed=5)
            report = run_search(setup, "random", seed=5, max_evaluations=4)
            thetas.append([e.theta for e in report.evaluated])
        assert thetas[0] == thetas[1]


class TestGridSearch:
    def test_grid_points_cover_box(self):
        setup = build_experiment("wordcount", seed=6)
        pts = grid_points(setup.scaler, points_per_axis=4)
        assert pts.shape == (16, 2)
        assert np.allclose(pts.min(axis=0), setup.scaler.scaled.lower)
        assert np.allclose(pts.max(axis=0), setup.scaler.scaled.upper)

    def test_exhaustive_cost_exceeds_spsa(self):
        # The §1 argument: grid search burns far more config changes.
        # A pause rule over all 25 points of the 5x5 grid keeps the run
        # exhaustive; the grid then stops on its own, inside the budget.
        setup = build_experiment("wordcount", seed=6)
        changes = setup.system.config_changes
        evaluated = exhaustive_grid(setup).run_until_pause(100)
        assert setup.system.config_changes - changes >= 24
        assert len(evaluated) == 25

    def test_max_evaluations_truncates(self):
        setup = build_experiment("wordcount", seed=7)
        assert len(exhaustive_grid(setup).run_until_pause(5)) == 5

"""Regression tests for the baseline bugfix pass, against the tuner API.

Three defects, each of which failed before the fix:

1. The BO tuner claimed a stratified initial design but drew plain
   uniform points — a 1-in-n^(n-1) chance per axis of actually covering
   every stratum.
2. BO raised on a non-finite objective, so one diverged probe aborted a
   whole run.
3. Picking a winner broke exact-objective ties by first-seen index,
   making the reported winner depend on evaluation order.  Every tuner's
   pick now comes from ``PauseRule``, which breaks ties on θ.
"""

import numpy as np
import pytest

from repro.core.bounds import paper_configuration_space
from repro.core.pause import EvaluatedConfig, PauseRule
from repro.obs import catalog
from repro.obs.registry import MetricsRegistry
from repro.tuners.base import DIVERGENCE_PENALTY
from repro.tuners.adapters import BOTuner


def _bo(seed=0, init_points=BOTuner.INIT_POINTS):
    """A BO tuner whose Latin-hypercube design has ``init_points``."""
    sized = type("SizedBOTuner", (BOTuner,), {"INIT_POINTS": init_points})
    return sized(paper_configuration_space(), seed=seed)


# -- 1. Latin-hypercube initial design ----------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
@pytest.mark.parametrize("init_points", [4, 5, 8])
def test_initial_design_covers_every_stratum_per_axis(seed, init_points):
    """With n init points, each axis's range splits into n strata and
    every stratum must contain exactly one sample — the Latin-hypercube
    property.  Plain uniform draws fail this almost surely."""
    bo = _bo(seed=seed, init_points=init_points)
    box = bo.box
    design = []
    for _ in range(init_points):
        theta = bo.ask()
        design.append(theta)
        bo.observe(theta, 1.0)  # advance to the next design point
    design = np.array(design)
    for axis in range(box.dim):
        strata = np.floor(
            (design[:, axis] - box.lower[axis])
            / box.ranges[axis]
            * init_points
        ).astype(int)
        strata = np.clip(strata, 0, init_points - 1)
        assert sorted(strata) == list(range(init_points)), (
            f"axis {axis}: strata {sorted(strata)} miss coverage"
        )


def test_initial_design_within_box_and_deterministic():
    a = _bo(seed=3).checkpoint()["initialDesign"]
    b = _bo(seed=3).checkpoint()["initialDesign"]
    assert a == b
    box = paper_configuration_space().scaled
    assert all(box.contains(p) for p in a)


# -- 2. Non-finite objective clamp --------------------------------------------


def test_tell_survives_non_finite_objectives():
    bo = _bo(init_points=2)
    t0 = bo.ask()
    bo.observe(t0, float("inf"))
    t1 = bo.ask()
    bo.observe(t1, float("nan"))
    assert bo.penalized == 2
    assert bo.checkpoint()["y"] == [DIVERGENCE_PENALTY] * 2
    # The GP phase still proposes a finite in-box point afterwards.
    nxt = bo.ask()
    assert np.all(np.isfinite(nxt)) and bo.box.contains(nxt)


def test_penalized_clamp_counts_on_tuner_metric():
    registry = MetricsRegistry()
    bo = _bo(init_points=2)
    bo.instrument(registry)
    bo.observe(bo.ask(), float("-inf"))
    counter = catalog.instrument(registry, "repro_tuner_penalized_total")
    assert counter.value == 1


def test_penalized_probe_never_wins():
    """A clamped probe ranks strictly worst, so it never becomes the
    incumbent expected improvement is measured against."""
    bo = _bo(init_points=2)
    diverged = bo.ask()
    bo.observe(diverged, float("inf"))
    good = bo.ask()
    bo.observe(good, 5.0)
    state = bo.checkpoint()
    incumbent = state["x"][int(np.argmin(state["y"]))]
    np.testing.assert_array_equal(incumbent, good)


# -- 3. Deterministic tie-breaking --------------------------------------------


def _evaluated(theta, objective):
    return EvaluatedConfig(
        theta=tuple(theta), objective=objective, end_to_end_delay=10.0,
        iteration=1, batch_interval=10.0, num_executors=8,
        mean_processing_time=5.0, stable=True,
    )


def _winner(evaluations):
    rule = PauseRule()
    for e in evaluations:
        rule.record(e)
    return rule.best_config().theta


def test_grid_report_tie_breaks_lexicographically():
    evaluations = [
        _evaluated((9.0, 3.0), 4.0),
        _evaluated((2.0, 8.0), 4.0),
        _evaluated((2.0, 5.0), 4.0),
    ]
    assert _winner(evaluations) == (2.0, 5.0)
    assert _winner(reversed(evaluations)) == (2.0, 5.0)


def test_random_report_tie_breaks_lexicographically():
    evaluations = [
        _evaluated((7.0, 7.0), 3.0),
        _evaluated((1.0, 9.0), 3.0),
    ]
    assert _winner(evaluations) == (1.0, 9.0)
    assert _winner(reversed(evaluations)) == (1.0, 9.0)


def test_sort_key_orders_equal_objectives_by_theta():
    a = _evaluated((5.0, 5.0), 2.0)
    b = _evaluated((4.0, 9.0), 2.0)
    assert sorted([a, b], key=lambda e: e.sort_key)[0] is b
    assert sorted([b, a], key=lambda e: e.sort_key)[0] is b


def test_bo_report_and_best_theta_tie_break():
    """The ranked top-N list, not only the winner, is order-free."""
    thetas = [(6.0, 2.0), (3.0, 4.0), (3.0, 1.0)]
    for order in (thetas, thetas[::-1]):
        rule = PauseRule()
        for theta in order:
            rule.record(_evaluated(theta, 1.5))
        assert [e.theta for e in rule.best()] == sorted(thetas)

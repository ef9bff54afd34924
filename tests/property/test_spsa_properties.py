"""Property-based tests for the SPSA core (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import Box
from repro.core.gains import GainSchedule
from repro.core.objective import penalized_objective
from repro.core.perturbation import (
    BernoulliPerturbation,
    SegmentedUniformPerturbation,
)

from ..core.test_spsa import make_tuner, minimize


@st.composite
def boxes(draw, max_dim=4):
    dim = draw(st.integers(1, max_dim))
    lower = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=dim, max_size=dim
        )
    )
    widths = draw(
        st.lists(st.floats(0.5, 100), min_size=dim, max_size=dim)
    )
    upper = [lo + w for lo, w in zip(lower, widths)]
    return Box(lower, upper)


class TestBoxProperties:
    @given(boxes(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_projection_is_idempotent_and_feasible(self, box, data):
        point = data.draw(
            st.lists(
                st.floats(-1000, 1000, allow_nan=False),
                min_size=box.dim,
                max_size=box.dim,
            )
        )
        projected = box.project(point)
        assert box.contains(projected)
        assert np.allclose(box.project(projected), projected)

    @given(boxes(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_projection_fixes_interior_points(self, box, data):
        fracs = data.draw(
            st.lists(
                st.floats(0.01, 0.99), min_size=box.dim, max_size=box.dim
            )
        )
        interior = box.lower + np.array(fracs) * box.ranges
        assert np.allclose(box.project(interior), interior)


class TestGainProperties:
    @given(
        a=st.floats(0.01, 100),
        c=st.floats(0.01, 100),
        A=st.floats(0, 50),
        k=st.integers(1, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_gains_positive_and_decreasing(self, a, c, A, k):
        g = GainSchedule(a=a, c=c, A=A)
        assert g.a_k(k) > 0
        assert g.c_k(k) > 0
        assert g.a_k(k + 1) < g.a_k(k)
        assert g.c_k(k + 1) <= g.c_k(k)

    @given(
        alpha=st.floats(0.01, 2.0),
        gamma=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_validate_matches_analytic_conditions(self, alpha, gamma):
        g = GainSchedule(a=1.0, c=1.0, alpha=alpha, gamma=gamma)
        expected = alpha <= 1.0 and 2 * (alpha - gamma) > 1.0
        assert g.is_convergent() == expected


class TestPerturbationProperties:
    @given(dim=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bernoulli_nonzero_bounded_symmetric_support(self, dim, seed):
        rng = np.random.default_rng(seed)
        delta = BernoulliPerturbation().sample(dim, rng)
        assert delta.shape == (dim,)
        assert np.all(np.abs(delta) == 1.0)
        assert np.all(np.isfinite(1.0 / delta))

    @given(dim=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_segmented_uniform_excludes_zero(self, dim, seed):
        rng = np.random.default_rng(seed)
        delta = SegmentedUniformPerturbation(0.3, 2.0).sample(dim, rng)
        assert np.all(np.abs(delta) >= 0.3)
        assert np.all(np.abs(delta) <= 2.0)


class TestObjectiveProperties:
    @given(
        interval=st.floats(0.1, 100),
        proc=st.floats(0, 200),
        rho=st.floats(0, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_objective_lower_bounded_by_interval(self, interval, proc, rho):
        g = penalized_objective(interval, proc, rho)
        assert g >= interval
        if proc <= interval:
            assert g == interval

    @given(
        interval=st.floats(0.1, 100),
        proc=st.floats(0, 200),
        rho1=st.floats(0, 5),
        rho2=st.floats(0, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_objective_monotone_in_rho(self, interval, proc, rho1, rho2):
        lo, hi = sorted((rho1, rho2))
        assert penalized_objective(interval, proc, lo) <= penalized_objective(
            interval, proc, hi
        )


class TestSPSAInvariants:
    @given(seed=st.integers(0, 1000), iterations=st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_theta_always_feasible(self, seed, iterations):
        tuner = make_tuner(
            theta0=(5.0, 5.0), seed=seed, gains=GainSchedule(a=5.0, c=1.0)
        )
        rng = np.random.default_rng(seed)
        _, calls = minimize(tuner, lambda t: float(rng.normal()), iterations)
        for record in tuner.history:
            assert tuner.box.contains(record.theta_plus)
            assert tuner.box.contains(record.theta_minus)
            assert tuner.box.contains(record.theta_next)
        assert calls == 2 * iterations == 2 * len(tuner.history)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_equal_measurements_give_zero_step(self, seed):
        tuner = make_tuner(
            theta0=(5.0, 5.0), seed=seed, gains=GainSchedule(a=5.0, c=1.0)
        )
        minimize(tuner, lambda t: 7.0, 1)  # y+ == y- => gradient 0
        record = tuner.history[-1]
        assert np.allclose(record.theta_next, record.theta)

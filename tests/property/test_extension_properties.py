"""Property-based tests for the extension modules (faults, windows,
SPSA variants)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gains import GainSchedule
from repro.engine.faults import FaultModel
from repro.engine.overhead import ZERO_OVERHEAD
from repro.engine.task_scheduler import NoiseModel, TaskScheduler
from repro.workloads.windowed import WindowedWordCount

from ..core.test_spsa import make_tuner, minimize
from ..engine.test_task_scheduler import executors, make_job


class TestFaultProperties:
    @given(
        prob=st.floats(0.0, 0.8),
        tasks=st.integers(1, 30),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_never_shrinks_under_faults(self, prob, tasks, seed):
        job_args = dict(tasks=tasks, cost=0.5)
        clean = TaskScheduler(overhead=ZERO_OVERHEAD, noise=NoiseModel(sigma=0.0))
        faulty = TaskScheduler(
            overhead=ZERO_OVERHEAD,
            noise=NoiseModel(sigma=0.0),
            faults=FaultModel(task_failure_prob=prob),
        )
        base = clean.run_job(
            make_job(**job_args), executors(4), 0.0, np.random.default_rng(seed)
        )
        injected = faulty.run_job(
            make_job(**job_args), executors(4), 0.0, np.random.default_rng(seed)
        )
        assert injected.processing_time >= base.processing_time - 1e-9
        assert injected.task_failures >= 0

    @given(prob=st.floats(0.0, 0.9), seed=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_failures_bounded_by_attempt_budget(self, prob, seed):
        fm = FaultModel(task_failure_prob=prob, max_attempts=4)
        sched = TaskScheduler(
            overhead=ZERO_OVERHEAD, noise=NoiseModel(sigma=0.0), faults=fm
        )
        tasks = 20
        run = sched.run_job(
            make_job(tasks=tasks, cost=0.2), executors(4), 0.0,
            np.random.default_rng(seed),
        )
        # Each task fails at most (max_attempts - 1) times.
        assert run.task_failures <= tasks * (fm.max_attempts - 1)


class TestWindowProperties:
    @given(
        window=st.integers(2, 12),
        size=st.integers(0, 10_000),
        batches=st.integers(1, 25),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_never_exceeds_recompute_at_constant_rate(
        self, window, size, batches
    ):
        # Pathwise the claim needs equal batch sizes (entering + leaving
        # vs window sum); with varying sizes it holds in expectation only.
        inc = WindowedWordCount(window_batches=window, incremental=True)
        rec = WindowedWordCount(window_batches=window, incremental=False)
        for _ in range(batches):
            assert inc.effective_records(size) <= rec.effective_records(size)

    @given(
        window=st.integers(3, 12),
        batches=st.lists(st.integers(0, 10_000), min_size=20, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_cheaper_in_aggregate(self, window, batches):
        inc = WindowedWordCount(window_batches=window, incremental=True)
        rec = WindowedWordCount(window_batches=window, incremental=False)
        inc_total = sum(inc.effective_records(n) for n in batches)
        rec_total = sum(rec.effective_records(n) for n in batches)
        assert inc_total <= rec_total

    @given(
        window=st.integers(1, 12),
        batches=st.lists(st.integers(0, 10_000), min_size=1, max_size=25),
    )
    @settings(max_examples=40, deadline=None)
    def test_recompute_bounded_by_window_sum(self, window, batches):
        rec = WindowedWordCount(window_batches=window, incremental=False)
        history = []
        for n in batches:
            history.append(n)
            eff = rec.effective_records(n)
            assert eff == sum(history[-window:])


class TestVariantInvariants:
    @given(seed=st.integers(0, 200), iters=st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_one_measurement_theta_feasible(self, seed, iters):
        tuner = make_tuner(
            theta0=(5.0, 5.0), seed=seed, probes=1,
            gains=GainSchedule(a=3.0, c=0.5),
        )
        rng = np.random.default_rng(seed)
        for _ in range(iters):
            minimize(tuner, lambda t: float(rng.normal()), 1)
            assert tuner.box.contains(tuner.theta)

    @given(seed=st.integers(0, 200), m=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_averaged_measurement_count_exact(self, seed, m):
        tuner = make_tuner(
            theta0=(5.0, 5.0), seed=seed, probes=2 * m,
            gains=GainSchedule(a=3.0, c=0.5),
        )
        _, first = minimize(tuner, lambda t: 1.0, 1)
        _, second = minimize(tuner, lambda t: 2.0, 1)
        assert first + second == 4 * m
        assert tuner.k == 2

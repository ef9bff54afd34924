"""Tests for windowed streaming operations."""

import numpy as np
import pytest

from repro.workloads.windowed import WindowedWordCount


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestEffectiveRecords:
    def test_incremental_covers_enter_plus_leave(self, rng):
        wl = WindowedWordCount(window_batches=3, incremental=True)
        # Window filling: nothing leaves yet.
        assert wl.effective_records(100) == 100
        assert wl.effective_records(200) == 200
        assert wl.effective_records(300) == 300
        # Window full: the batch of 100 leaves as 400 enters.
        assert wl.effective_records(400) == 400 + 100

    def test_recompute_covers_whole_window(self, rng):
        wl = WindowedWordCount(window_batches=3, incremental=False)
        wl.effective_records(100)
        wl.effective_records(200)
        assert wl.effective_records(300) == 600
        assert wl.effective_records(400) == 900  # 200+300+400

    def test_incremental_cheaper_than_recompute_for_wide_windows(self, rng):
        inc = WindowedWordCount(window_batches=10, incremental=True)
        rec = WindowedWordCount(window_batches=10, incremental=False)
        for _ in range(10):
            inc.effective_records(1000)
            rec.effective_records(1000)
        assert inc.effective_records(1000) < rec.effective_records(1000)

    def test_job_costs_reflect_window(self, rng):
        plain = WindowedWordCount(window_batches=1, incremental=False)
        wide = WindowedWordCount(window_batches=5, incremental=False)
        for _ in range(5):
            wide.build_job(0.0, 1000, rng)
        plain_job = plain.build_job(0.0, 1000, rng)
        wide_job = wide.build_job(1.0, 1000, rng)
        assert wide_job.total_compute_cost > 3 * plain_job.total_compute_cost
        # The job still reports only the newly arrived records.
        assert wide_job.records == 1000

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            WindowedWordCount(window_batches=0)


class TestWindowedKernel:
    def test_aggregate_spans_window(self, rng):
        wl = WindowedWordCount(window_batches=2)
        wl.run_kernel(["a a"])
        out = wl.run_kernel(["b"])
        assert out == {"a": 2, "b": 1}

    def test_old_batches_slide_out(self, rng):
        wl = WindowedWordCount(window_batches=2)
        wl.run_kernel(["a"])
        wl.run_kernel(["b"])
        out = wl.run_kernel(["c"])
        assert out == {"b": 1, "c": 1}  # "a" slid out

    def test_totals_still_accumulate_globally(self, rng):
        wl = WindowedWordCount(window_batches=1)
        wl.run_kernel(["x"])
        wl.run_kernel(["x"])
        assert wl.totals["x"] == 2

    def test_window_fill(self, rng):
        wl = WindowedWordCount(window_batches=4)
        assert wl.run_kernel(["a"]) == {"a": 1}
        assert wl.run_kernel(["b"]) == {"a": 1, "b": 1}


class TestWindowedInPipeline:
    def test_runs_end_to_end(self):
        from ..conftest import make_context

        wl = WindowedWordCount(window_batches=4, incremental=True)
        ctx = make_context(rate=50_000, interval=5.0, executors=14, workload=wl)
        infos = ctx.advance_batches(10)
        assert len(infos) >= 8
        # Steady state: incremental windowed cost ~ 2x plain per batch;
        # the system must still be stable at this sizing.
        assert ctx.listener.metrics.unstable_fraction() < 0.5

    def test_recompute_windows_are_heavier(self):
        from ..conftest import make_context

        inc_ctx = make_context(
            rate=50_000, interval=5.0, executors=14,
            workload=WindowedWordCount(window_batches=6, incremental=True),
            seed=4,
        )
        rec_ctx = make_context(
            rate=50_000, interval=5.0, executors=14,
            workload=WindowedWordCount(window_batches=6, incremental=False),
            seed=4,
        )
        inc = inc_ctx.advance_batches(10)
        rec = rec_ctx.advance_batches(10)
        inc_proc = np.mean([b.processing_time for b in inc[-4:]])
        rec_proc = np.mean([b.processing_time for b in rec[-4:]])
        assert rec_proc > inc_proc

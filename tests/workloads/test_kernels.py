"""Unit tests for the real compute kernels of the four workloads."""

import numpy as np
import pytest

from repro.datagen.records import (
    make_labeled_points,
    make_nginx_log_lines,
    make_text_lines,
)
from repro.workloads import make_workload
from repro.workloads.linear_regression import StreamingLinearRegression
from repro.workloads.logistic_regression import StreamingLogisticRegression
from repro.workloads.page_analyze import PageAnalyze
from repro.workloads.wordcount import WordCount


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestLogisticRegressionKernel:
    def test_training_improves_accuracy(self, rng):
        wl = StreamingLogisticRegression(dim=6)
        first = None
        for _ in range(10):
            batch = make_labeled_points(300, dim=6, rng=rng, binary=True)
            out = wl.run_kernel(batch)
            if first is None:
                first = out
        assert out["accuracy"] > 0.8
        assert out["loss"] < first["loss"]

    def test_model_persists_across_batches(self, rng):
        wl = StreamingLogisticRegression(dim=4)
        wl.run_kernel(make_labeled_points(100, dim=4, rng=rng))
        w1 = wl.weights.copy()
        wl.run_kernel(make_labeled_points(100, dim=4, rng=rng))
        assert not np.allclose(w1, wl.weights)
        assert wl.batches_trained == 2

    def test_empty_batch_is_safe(self):
        wl = StreamingLogisticRegression()
        out = wl.run_kernel([])
        assert out["n"] == 0
        assert np.all(wl.weights == 0)

    def test_dimension_mismatch_rejected(self, rng):
        wl = StreamingLogisticRegression(dim=3)
        with pytest.raises(ValueError):
            wl.run_kernel(make_labeled_points(10, dim=5, rng=rng))

    def test_predict_returns_probabilities(self, rng):
        wl = StreamingLogisticRegression(dim=4)
        wl.run_kernel(make_labeled_points(200, dim=4, rng=rng))
        p = wl.predict(rng.normal(size=(10, 4)))
        assert np.all((p >= 0) & (p <= 1))


class TestLinearRegressionKernel:
    def test_training_reduces_mse(self, rng):
        wl = StreamingLinearRegression(dim=6)
        errors = []
        for _ in range(10):
            batch = make_labeled_points(300, dim=6, rng=rng, binary=False)
            errors.append(wl.run_kernel(batch)["mse"])
        assert errors[-1] < errors[0]

    def test_empty_batch_is_safe(self):
        wl = StreamingLinearRegression()
        assert wl.run_kernel([])["n"] == 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            StreamingLinearRegression(dim=0)
        with pytest.raises(ValueError):
            StreamingLinearRegression(step_size=0.0)


class TestWordCountKernel:
    def test_counts_are_exact(self):
        wl = WordCount()
        out = wl.run_kernel(["a b a", "b c"])
        assert out == {"a": 2, "b": 2, "c": 1}

    def test_totals_accumulate_across_batches(self, rng):
        wl = WordCount()
        wl.run_kernel(["x y"])
        wl.run_kernel(["x z"])
        assert wl.totals["x"] == 2
        assert wl.batches_processed == 2

    def test_top_words(self, rng):
        wl = WordCount()
        wl.run_kernel(make_text_lines(200, rng))
        top = wl.totals.most_common(3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]


class TestPageAnalyzeKernel:
    def test_washing_drops_malformed(self, rng):
        wl = PageAnalyze()
        lines = make_nginx_log_lines(1000, rng)
        result = wl.run_kernel(lines)
        assert result.parsed + result.malformed == 1000
        assert result.malformed > 0

    def test_per_path_stats(self, rng):
        wl = PageAnalyze()
        result = wl.run_kernel(make_nginx_log_lines(2000, rng))
        assert result.per_path
        total_hits = sum(s.hits for s in result.per_path.values())
        assert total_hits == result.parsed
        for s in result.per_path.values():
            assert s.mean_latency_ms >= 0

    def test_writes_to_hdfs_sink(self, rng):
        wl = PageAnalyze()
        wl.run_kernel(make_nginx_log_lines(100, rng))
        wl.run_kernel(make_nginx_log_lines(100, rng))
        assert len(wl.hdfs_sink) == 2
        assert wl.hdfs_sink[1]["batch"] == 1

    def test_error_rate_bounded(self, rng):
        wl = PageAnalyze()
        result = wl.run_kernel(make_nginx_log_lines(2000, rng))
        errors = sum(s.errors for s in result.per_path.values())
        assert 0 <= errors <= result.parsed


class TestRegistry:
    @pytest.mark.parametrize("name", [
        "logistic_regression", "linear_regression", "wordcount", "page_analyze",
    ])
    def test_make_workload(self, name):
        wl = make_workload(name)
        assert wl.name == name

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            make_workload("nope")

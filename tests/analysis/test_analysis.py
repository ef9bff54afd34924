"""Unit tests for the analysis helpers."""

import numpy as np
import pytest

from repro.analysis.stats import improvement_factor, summarize
from repro.analysis.tables import format_series, format_table
from repro.analysis.traces import ExperimentTrace


class TestSummarize:
    def test_basic_summary(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)
        assert s.n == 3
        assert s.minimum == 1.0
        assert s.maximum == 3.0

    def test_single_value_has_zero_std(self):
        assert summarize([5.0]).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            summarize([1.0, float("nan")])

    def test_str_format(self):
        assert "±" in str(summarize([1.0, 2.0]))


class TestImprovementFactor:
    def test_factor(self):
        assert improvement_factor(20.0, 10.0) == pytest.approx(2.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            improvement_factor(10.0, 0.0)


class TestFormatTable:
    def test_renders_aligned_rows(self):
        out = format_table(["a", "bb"], [(1, 2.5), ("x", True)], title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.50" in out and "yes" in out

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [(1, 2)])


class TestFormatSeries:
    def test_renders_pairs(self):
        out = format_series("s", [1, 2], [0.5, 1.5], unit="s")
        assert "1 -> 0.500 s" in out

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_series("s", [1], [1.0, 2.0])


class TestExperimentTrace:
    def test_save_load_roundtrip(self, tmp_path):
        trace = ExperimentTrace("fig2", metadata={"seed": 1})
        trace.add_series("proc", [1.0, 2.0, np.float64(3.0)])
        trace.append("sched", 0.5)
        path = trace.save(tmp_path / "out" / "fig2.json")
        loaded = ExperimentTrace.load(path)
        assert loaded.experiment == "fig2"
        assert loaded.metadata == {"seed": 1}
        assert loaded.series["proc"] == [1.0, 2.0, 3.0]
        assert loaded.series["sched"] == [0.5]

    def test_duplicate_series_rejected(self):
        trace = ExperimentTrace("x")
        trace.add_series("a", [1])
        with pytest.raises(ValueError):
            trace.add_series("a", [2])

    def test_malformed_file_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"metadata": {}}')
        with pytest.raises(ValueError):
            ExperimentTrace.load(p)

    def test_numpy_arrays_serialized(self, tmp_path):
        trace = ExperimentTrace("x")
        trace.add_series("arr", [np.arange(3)])
        loaded = ExperimentTrace.load(trace.save(tmp_path / "t.json"))
        assert loaded.series["arr"] == [[0, 1, 2]]

"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "wordcount"
        assert args.rounds == 30

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nope"])


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("wordcount", "logistic_regression", "page_analyze"):
            assert name in out

    def test_run_prints_final_config(self, capsys):
        assert main(["run", "--workload", "wordcount", "--rounds", "6",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "final: interval=" in out
        assert "configuration changes:" in out

    def test_run_writes_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["run", "--workload", "wordcount", "--rounds", "4",
                     "--seed", "3", "--trace-out", str(trace_path)]) == 0
        payload = json.loads(trace_path.read_text())
        assert payload["experiment"] == "nostop-wordcount"
        assert len(payload["series"]["interval"]) == 4

    def test_figure_table2(self, capsys):
        assert main(["figure", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Xeon Bronze 3204" in out

    def test_figure_fig5(self, capsys):
        assert main(["figure", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "input data rates" in out

    def test_unknown_figure_errors(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_fig5_runs_and_reports_stats(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        assert main(["sweep", "fig5", "--cache-dir", str(tmp_path / "c"),
                     "--json", str(stats_path)]) == 0
        captured = capsys.readouterr()
        assert "input data rates" in captured.out
        assert "cache hits" in captured.err
        stats = json.loads(stats_path.read_text())
        assert stats["cells"] == 4
        assert stats["executed"] == 4
        assert stats["cacheHits"] == 0
        assert stats["versionTag"]

    def test_sweep_second_run_is_all_cache_hits(self, tmp_path, capsys):
        cache = str(tmp_path / "c")
        stats_path = tmp_path / "stats.json"
        assert main(["sweep", "fig5", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["sweep", "fig5", "--cache-dir", cache, "--workers", "2",
                     "--json", str(stats_path)]) == 0
        stats = json.loads(stats_path.read_text())
        assert stats["cacheHits"] == 4
        assert stats["executed"] == 0
        assert stats["batchesExecuted"] == 0

    def test_sweep_no_cache_reexecutes(self, tmp_path):
        cache = str(tmp_path / "c")
        stats_path = tmp_path / "stats.json"
        assert main(["sweep", "fig5", "--cache-dir", cache]) == 0
        assert main(["sweep", "fig5", "--cache-dir", cache, "--no-cache",
                     "--json", str(stats_path)]) == 0
        stats = json.loads(stats_path.read_text())
        assert stats["cacheHits"] == 0
        assert stats["executed"] == 4

    def test_sweep_clear_cache_alone(self, tmp_path, capsys):
        cache = str(tmp_path / "c")
        assert main(["sweep", "fig5", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["sweep", "--cache-dir", cache, "--clear-cache"]) == 0
        assert "cache cleared: 4 entries" in capsys.readouterr().err

    def test_sweep_without_name_errors(self, tmp_path, capsys):
        assert main(["sweep", "--cache-dir", str(tmp_path)]) == 2
        assert "no sweep named" in capsys.readouterr().err

    def test_sweep_unknown_name_errors(self, tmp_path, capsys):
        assert main(["sweep", "fig99", "--cache-dir", str(tmp_path)]) == 2
        assert "unknown sweep" in capsys.readouterr().err


#: A one-cell tournament, so a flag the parser lets through runs fast.
ONE_CELL = ["tournament", "--tuners", "random", "--scenarios", "steady",
            "--budget", "1", "--retries", "0"]


class TestPositiveFloatFlags:
    """A duration, SLO or factor the callee rejects at zero or below is a
    usage error, not a traceback or a poisoned cell."""

    @pytest.mark.parametrize("command, flag, value", [
        (["sweep", "fig5"], "--timeout", "0"),
        (["sweep", "fig5"], "--timeout", "-5"),
        (ONE_CELL, "--slo", "0"),
        (ONE_CELL, "--slo", "-20"),
        (ONE_CELL, "--slo", "nan"),
        (["report"], "--rate-shift-multiplier", "0"),
        (["report"], "--rate-shift-multiplier", "-0.5"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_rejected_at_parse_time(self, command, flag, value, tmp_path,
                                    capsys):
        cache = [] if command == ["report"] else ["--cache-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main([*command, *cache, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {value} is not positive" in (
            capsys.readouterr().err
        )

    def test_positive_values_parse_as_floats(self):
        parser = build_parser()
        assert parser.parse_args(["tournament", "--slo", "20"]).slo == 20.0
        assert parser.parse_args(
            ["sweep", "fig5", "--timeout", "2.5"]
        ).timeout == 2.5
        assert parser.parse_args(
            ["report", "--rate-shift-multiplier", "1.5"]
        ).rate_shift_multiplier == 1.5


class TestCountFlags:
    """A count the callee rejects is a usage error, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["run", "--rounds", "0"],
        ["trace", "--sample", "0"],
        ["tournament", "--repeats", "0"],
        ["tournament", "--budget", "0"],
        ["check", "--batches", "0"],
        ["figure", "fig7", "--repeats", "0"],
        ["sweep", "fig5", "--workers", "-1"],
        ["sweep", "fig5", "--workers", "0"],
        ["sweep", "fig5", "--retries", "-1"],
        ["run", "--rounds", "many"],
    ])
    def test_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: " in capsys.readouterr().err

    def test_unset_workers_means_every_core(self, tmp_path):
        stats_path = tmp_path / "stats.json"
        assert main(["sweep", "fig5", "--cache-dir", str(tmp_path / "c"),
                     "--json", str(stats_path)]) == 0
        stats = json.loads(stats_path.read_text())
        assert stats["workers"] == (os.cpu_count() or 1)

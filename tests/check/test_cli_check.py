"""CLI surface: ``repro check`` and ``repro lint``."""

import json

import pytest

from repro.check import run_check
from repro.check.violations import CheckReport, InvariantViolation, OracleResult
from repro.cli import main


class TestRunCheck:
    def test_quickstart_target_is_clean(self):
        report = run_check(
            "quickstart", workload="logistic_regression", batches=10,
            warmup=3,
        )
        assert report.ok
        assert report.batches_checked == 10
        assert not report.violations
        assert all(o.passed for o in report.oracles)

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            run_check("nonsense")


class TestCheckReport:
    def _report(self, **kwargs):
        return CheckReport(
            target="quickstart", workload="wordcount", seed=1, **kwargs
        )

    def test_violations_fail_the_report(self):
        r = self._report(
            violations=[
                InvariantViolation("record-conservation", 10.0, "boom")
            ]
        )
        assert not r.ok
        assert "FAIL" in r.render_text()

    def test_oracle_failures_gate_unless_disabled(self):
        bad = OracleResult(
            oracle="steady-state-delay", expected=1.0, actual=9.0,
            tolerance=0.5, samples=3,
        )
        assert not self._report(oracles=[bad]).ok
        informational = self._report(oracles=[bad], gate_oracles=False)
        assert informational.ok
        assert "informational" in informational.render_text()

    def test_json_round_trip(self):
        r = self._report(
            checks_run=5,
            oracles=[
                OracleResult(
                    oracle="utilization-law", expected=2.0, actual=2.1,
                    tolerance=0.6, samples=4,
                )
            ],
        )
        data = json.loads(r.to_json())
        assert data["ok"] is True
        assert data["oracles"][0]["passed"] is True
        assert data["checks_run"] == 5


class TestCli:
    def test_check_subcommand_strict_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main([
            "check", "quickstart", "--workload", "logistic_regression",
            "--batches", "10", "--warmup", "3", "--strict",
            "--json", str(out),
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["ok"] is True
        assert data["violations"] == []
        captured = capsys.readouterr()
        assert "result: OK" in captured.out

    def test_lint_subcommand_clean_on_package(
        self, package_lint, monkeypatch, capsys
    ):
        # With no path, `repro lint` lints the package directory; the
        # package's findings come from the shared session lint.
        root, findings = package_lint
        asked = []

        def lint_paths(paths):
            asked.append(list(paths))
            return findings

        monkeypatch.setattr("repro.check.lint.lint_paths", lint_paths)
        rc = main(["lint"])
        assert asked == [[root]]
        assert rc == 0
        assert "repro lint clean" in capsys.readouterr().out

    def test_lint_subcommand_flags_hazards(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n", encoding="utf-8")
        out = tmp_path / "lint.json"
        rc = main(["lint", str(bad), "--json", str(out)])
        assert rc == 1
        data = json.loads(out.read_text())
        assert data[0]["rule"] == "DET002"
        assert "DET002" in capsys.readouterr().out

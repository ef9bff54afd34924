"""CLI: ``repro metrics`` (snapshot/catalog) and ``repro dash``."""

import json

from repro.cli import main
from repro.obs import catalog_json, catalog_markdown, dashboard_json

from ..obs.helpers import parse_jsonl_events, validate_prometheus_text

RUN = ["--workload", "wordcount", "--rounds", "2", "--seed", "3"]


class TestSnapshot:
    def test_prom_snapshot_validates(self, capsys):
        assert main(["metrics", "--format", "prom"] + RUN) == 0
        out = capsys.readouterr().out
        assert validate_prometheus_text(out) == []

    def test_filter_restricts_output(self, capsys):
        assert main(
            ["metrics", "--format", "prom",
             "--filter", "repro_nostop_"] + RUN
        ) == 0
        out = capsys.readouterr().out
        sample_lines = [
            line for line in out.splitlines()
            if line and not line.startswith("#")
        ]
        assert sample_lines
        assert all(
            line.startswith("repro_nostop_") for line in sample_lines
        )

    def test_unknown_filter_prefix_exits_2(self, capsys):
        assert main(["metrics", "--filter", "repro_nope_"] + RUN) == 2
        assert "no metric matches" in capsys.readouterr().err

    def test_json_snapshot_sorted_and_parseable(self, capsys):
        assert main(
            ["metrics", "--json", "--filter", "repro_nostop_"] + RUN
        ) == 0
        events = json.loads(capsys.readouterr().out)
        names = [e["name"] for e in events]
        assert names == sorted(names)
        assert all("kind" in e and "labels" in e for e in events)

    def test_events_out_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(
            ["metrics", "--events-out", str(path)] + RUN
        ) == 0
        events = parse_jsonl_events(path.read_text())
        assert any(e.get("event") == "batch_completed" for e in events)
        # The final registry snapshot rides the same file.
        assert any(
            e.get("name") == "repro_nostop_rounds_total" for e in events
        )


class TestCatalog:
    def test_default_prints_markdown(self, capsys):
        assert main(["metrics", "catalog"]) == 0
        assert capsys.readouterr().out == catalog_markdown()

    def test_write_then_check_round_trips(self, tmp_path, capsys):
        docs = str(tmp_path / "docs")
        assert main(
            ["metrics", "catalog", "--write", "--docs-dir", docs]
        ) == 0
        assert main(
            ["metrics", "catalog", "--check", "--docs-dir", docs]
        ) == 0
        assert (tmp_path / "docs" / "METRICS.md").read_text() == (
            catalog_markdown()
        )
        assert (tmp_path / "docs" / "metrics.json").read_text() == (
            catalog_json()
        )

    def test_check_fails_on_drift(self, tmp_path, capsys):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "METRICS.md").write_text("stale\n")
        (docs / "metrics.json").write_text("{}\n")
        assert main(
            ["metrics", "catalog", "--check", "--docs-dir", str(docs)]
        ) == 1
        assert "stale generated file" in capsys.readouterr().err

    def test_check_fails_on_missing_docs(self, tmp_path, capsys):
        assert main(
            ["metrics", "catalog", "--check",
             "--docs-dir", str(tmp_path / "nowhere")]
        ) == 1

    def test_checked_in_docs_match_the_catalog(self):
        # The repository's own generated docs must never drift — this is
        # the same gate CI runs via `repro metrics catalog --check`.
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        assert (root / "docs" / "METRICS.md").read_text() == (
            catalog_markdown()
        )
        assert (root / "docs" / "metrics.json").read_text() == (
            catalog_json()
        )


class TestDash:
    def test_stdout_matches_generator(self, capsys):
        assert main(["dash"]) == 0
        assert capsys.readouterr().out == dashboard_json()

    def test_out_writes_file(self, tmp_path, capsys):
        path = tmp_path / "dash.json"
        assert main(["dash", "--out", str(path)]) == 0
        assert path.read_text() == dashboard_json()

    def test_checked_in_dashboard_matches(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        assert (root / "docs" / "dashboard.json").read_text() == (
            dashboard_json()
        )

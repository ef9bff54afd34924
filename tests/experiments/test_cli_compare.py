"""Tests for ``repro compare``: every row ranks picks by the pause rule."""

from repro.cli import main
from repro.experiments.common import build_experiment
from repro.tuners import make_tuner, run_tuner


def _rows(out: str) -> dict:
    rows = {}
    for line in out.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 4:
            rows[cells[0]] = cells
    return rows


def test_random_search_row_reports_a_stable_configuration(capsys):
    """Regression: the random-search row used to rank probes by objective
    alone.  On wordcount seed 0 with 40 evaluations it picked a 2.104 s
    interval on 3 executors whose processing time (2.93 s) exceeds the
    interval, and printed 3.99 s for an unstable configuration.  The row
    must show ``PauseRule.best_config()``, which ranks stable picks
    first."""
    assert main(["compare", "--workload", "wordcount", "--rounds", "20"]) == 0
    row = _rows(capsys.readouterr().out)["Random search"]

    setup = build_experiment("wordcount", seed=0)
    report = run_tuner(
        make_tuner("random", setup.scaler, seed=0),
        setup.system,
        setup.scaler,
        max_evaluations=40,
    )
    assert report.best_stable
    assert row[1] == f"{report.best_delay:.2f}"
    assert int(row[2]) == report.evaluations

"""Tournament harness: scenarios, run scoring, leaderboard, sweep cell."""

import json

import pytest

from repro.experiments.common import build_experiment
from repro.runner.cells import execute_cell
from repro.tuners import (
    DEFAULT_SCENARIOS,
    SCORE_COLUMNS,
    TOURNAMENT_SCENARIOS,
    SafeOnlineTuner,
    build_leaderboard,
    make_tuner,
    render_leaderboard,
    run_tuner,
    scenario_trace,
    tournament_space,
)

BUDGET = 6


def _cell(tuner="random", scenario="steady", seed=3, **over):
    params = {
        "tuner": tuner,
        "scenario": scenario,
        "seed": seed,
        "workload": "wordcount",
        "budget": BUDGET,
        "fidelity": "vectorized",
    }
    params.update(over)
    return execute_cell("tournament", params)


# -- scenarios ----------------------------------------------------------------


@pytest.mark.parametrize("scenario", TOURNAMENT_SCENARIOS)
def test_every_scenario_builds_a_positive_trace(scenario):
    trace = scenario_trace(scenario, "wordcount")
    for t in (0.0, 300.0, 650.0, 1200.0):
        assert trace.rate(t) > 0


def test_scenarios_differ_in_shape():
    steady = scenario_trace("steady", "wordcount")
    step = scenario_trace("step", "wordcount")
    spike = scenario_trace("spike", "wordcount")
    assert steady.rate(0.0) == steady.rate(900.0)
    assert step.rate(599.0) < step.rate(601.0)
    assert spike.rate(500.0) > spike.rate(100.0)
    assert spike.rate(800.0) == spike.rate(100.0)


def test_unknown_scenario_raises():
    with pytest.raises(KeyError, match="unknown scenario"):
        scenario_trace("tsunami", "wordcount")


def test_default_scenarios_are_three_of_four():
    assert set(DEFAULT_SCENARIOS) < set(TOURNAMENT_SCENARIOS)
    assert len(DEFAULT_SCENARIOS) == 3


def test_tournament_space_has_four_axes():
    space = tournament_space()
    assert space.scaled.dim == 4
    lo, hi = space.physical.lower, space.physical.upper
    assert list(lo) == [1.0, 2.0, 8.0, 1.0]
    assert list(hi) == [40.0, 16.0, 96.0, 2.0]


# -- run_tuner scoring --------------------------------------------------------


def test_run_tuner_scores_a_live_run():
    space = tournament_space()
    setup = build_experiment(
        "wordcount", seed=5,
        rate_trace=scenario_trace("steady", "wordcount"),
        fidelity="vectorized",
    )
    tuner = make_tuner("random", space, seed=5)
    report = run_tuner(
        tuner, setup.system, space, max_evaluations=BUDGET, slo_delay=30.0
    )
    assert report.evaluations == BUDGET
    assert report.batches_executed == len(setup.context.listener.metrics)
    assert report.convergence_batches > 0
    assert report.slo_violation_seconds >= 0.0
    assert report.reconfig_seconds > 0.0
    assert report.config_changes > 0
    assert len(report.best_theta) == 4
    payload = report.to_dict()
    for column in SCORE_COLUMNS:
        assert column in payload


def test_run_tuner_is_deterministic():
    def one():
        space = tournament_space()
        setup = build_experiment(
            "wordcount", seed=9,
            rate_trace=scenario_trace("spike", "wordcount"),
            fidelity="vectorized",
        )
        tuner = make_tuner("nostop", space, seed=9)
        return run_tuner(
            tuner, setup.system, space, max_evaluations=BUDGET
        ).to_dict()

    assert json.dumps(one(), sort_keys=True) == json.dumps(
        one(), sort_keys=True
    )


# -- the sweep cell -----------------------------------------------------------


def test_tournament_cell_returns_scored_row():
    row = _cell()
    assert row["tuner"] == "random"
    assert row["scenario"] == "steady"
    assert row["workload"] == "wordcount"
    assert row["evaluations"] == BUDGET
    assert row["batchesExecuted"] > 0
    for column in SCORE_COLUMNS:
        assert column in row


def test_tournament_cell_rejects_unknown_params():
    with pytest.raises(TypeError, match="unknown params"):
        _cell(bogus=1)


@pytest.mark.parametrize("slo", [20.0, 30.0])
def test_tournament_cell_judges_safe_online_at_its_slo(monkeypatch, slo):
    """The safe-online tuner's safety threshold is the SLO the cell
    scores every tuner at, not a threshold of its own."""
    thresholds = []
    judge = SafeOnlineTuner._is_safe

    def spy(self, evaluated):
        thresholds.append(self.slo_delay)
        return judge(self, evaluated)

    monkeypatch.setattr(SafeOnlineTuner, "_is_safe", spy)
    row = _cell(tuner="safe-online", slo_delay=slo)
    assert row["sloDelaySeconds"] == slo
    assert len(thresholds) == BUDGET
    assert set(thresholds) == {slo}


# -- the leaderboard ----------------------------------------------------------


def _row(tuner, scenario="steady", slo=0.0, conv=50, reconfig=4.0,
         converged=True):
    return {
        "tuner": tuner, "scenario": scenario, "workload": "wordcount",
        "converged": converged, "convergenceBatches": conv,
        "sloViolationSeconds": slo, "reconfigSeconds": reconfig,
        "configChanges": 10, "bestObjective": 5.0, "searchTime": 100.0,
    }


def test_leaderboard_ranks_on_the_three_scores_in_order():
    rows = [
        _row("a", slo=10.0, conv=10, reconfig=1.0),
        _row("b", slo=0.0, conv=99, reconfig=9.0),
        _row("c", slo=0.0, conv=50, reconfig=9.0),
        _row("d", slo=0.0, conv=50, reconfig=2.0),
    ]
    payload = build_leaderboard(rows, budget=BUDGET, slo_delay=30.0,
                                fidelity="vectorized")
    ranked = [e["tuner"] for e in payload["leaderboard"]]
    assert ranked == ["d", "c", "b", "a"]
    assert [e["rank"] for e in payload["leaderboard"]] == [1, 2, 3, 4]


def test_leaderboard_ties_break_on_tuner_name():
    rows = [_row("zeta"), _row("alpha")]
    payload = build_leaderboard(rows, budget=BUDGET, slo_delay=30.0,
                                fidelity="vectorized")
    assert [e["tuner"] for e in payload["leaderboard"]] == ["alpha", "zeta"]


def test_leaderboard_averages_over_scenarios():
    rows = [
        _row("a", scenario="steady", slo=0.0),
        _row("a", scenario="step", slo=10.0),
    ]
    payload = build_leaderboard(rows, budget=BUDGET, slo_delay=30.0,
                                fidelity="vectorized")
    entry = payload["leaderboard"][0]
    assert entry["runs"] == 2
    assert entry["sloViolationSeconds"] == 5.0
    assert payload["scenarios"] == ["steady", "step"]


def test_leaderboard_counts_dropped_failures():
    rows = [_row("a"), {"failure": "crash"}]
    payload = build_leaderboard(rows, budget=BUDGET, slo_delay=30.0,
                                fidelity="vectorized")
    assert payload["cells"] == 2
    assert payload["cellsDropped"] == 1
    assert len(payload["leaderboard"]) == 1


def test_leaderboard_json_is_byte_deterministic():
    rows_a = [_row("a"), _row("b", slo=3.0)]
    rows_b = [_row("a"), _row("b", slo=3.0)]
    dump = lambda rows: json.dumps(  # noqa: E731
        build_leaderboard(rows, budget=BUDGET, slo_delay=30.0,
                          fidelity="vectorized"),
        sort_keys=True,
    )
    assert dump(rows_a) == dump(rows_b)


def test_render_leaderboard_mentions_every_tuner():
    payload = build_leaderboard(
        [_row("a"), _row("b", slo=2.0)],
        budget=BUDGET, slo_delay=30.0, fidelity="vectorized",
    )
    text = render_leaderboard(payload)
    assert "a" in text and "b" in text and "rank" in text

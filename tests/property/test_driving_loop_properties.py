"""Property-based tests: the tournament runs through NoStop's controller.

``run_tuner`` once had its own driving loop: its own Adjust function,
collector and pause rule, one ask per evaluation, the pause rule read
after each, and a stop at the pause; ``run_search`` then re-measured a
singleton winner through a second Adjust function.  That loop is kept
here verbatim as the reference.  For a random tuner, scenario, workload,
seed, pause rule and budget on the fluid tier, the folded ``run_tuner``
(:meth:`NoStopController.run_until_pause` and
:meth:`NoStopController.confirm_best`) must give the same scored report,
the same ranked records, the same tuner checkpoint and the same pause
rule history as the reference, with and without the confirmation pass.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adjust import AdjustFunction, evaluate_config
from repro.core.metrics_collector import MetricsCollector
from repro.core.pause import PauseRule
from repro.experiments.common import build_experiment
from repro.tuners import make_tuner, run_tuner, tournament_space, tuner_names
from repro.tuners.base import TunerRunReport, _batch_metrics, _pause_injected
from repro.tuners.tournament import TOURNAMENT_SCENARIOS, scenario_trace

WORKLOADS = ("wordcount", "logistic_regression", "linear_regression",
             "page_analyze")
RHO_CAP = 2.0


def _reference_confirm(rule, adjust, iteration, max_confirmations=4):
    """The former ``core.pause.confirm_best``, as ``run_search`` called it."""
    for _ in range(max_confirmations):
        if not rule.evaluations:
            return
        best = rule.best_config()
        if rule.measurement_count(best.theta) >= 2:
            return
        theta = np.asarray(best.theta, dtype=float)
        result = adjust(theta, RHO_CAP)
        rule.record(evaluate_config(result, theta, iteration, rho_cap=RHO_CAP))


def _reference_run(tuner, system, scaler, max_evaluations, slo_delay,
                   rule, confirm):
    """The former ``run_tuner`` loop, then ``run_search``'s confirmation."""
    collector = MetricsCollector()
    adjust = AdjustFunction(system, scaler, collector)
    report = TunerRunReport(tuner=tuner.name)
    metrics = _batch_metrics(system)
    start_time = system.time
    start_changes = system.config_changes
    start_pause = _pause_injected(system)

    for i in range(1, max_evaluations + 1):
        if tuner.exhausted:
            break
        theta = scaler.scaled.project(tuner.ask())
        result = adjust(theta, tuner.rho(RHO_CAP))
        evaluated = evaluate_config(result, theta, i, rho_cap=RHO_CAP)
        rule.record(evaluated)
        report.evaluated.append(evaluated)
        tuner.observe(theta, result.objective, evaluated)
        report.evaluations = i
        if rule.should_pause():
            report.converged = True
            report.converged_at = i
            break

    total_batches = len(metrics) if metrics is not None else 0
    report.convergence_batches = total_batches
    report.batches_executed = total_batches
    if metrics is not None:
        report.slo_violation_seconds = float(
            sum(
                b.interval
                for b in metrics.batches
                if b.end_to_end_delay > slo_delay
            )
        )
    report.reconfig_seconds = _pause_injected(system) - start_pause
    report.config_changes = system.config_changes - start_changes
    report.search_time = system.time - start_time
    if rule.evaluations:
        best = rule.best_config()
        report.best_objective = best.objective
        report.best_theta = best.theta
        report.best_delay = best.end_to_end_delay
        report.best_stable = best.stable

    if confirm:
        adjust = AdjustFunction(system, scaler, collector)
        _reference_confirm(rule, adjust, report.evaluations)
        best = rule.best_config()
        report.best_objective = best.objective
        report.best_theta = best.theta
        report.best_delay = best.end_to_end_delay
        report.best_stable = best.stable
        report.search_time = system.time - start_time
    return report


def _run(driver, name, scenario, workload, seed, budget, slo_delay,
         rule_args, confirm):
    setup = build_experiment(
        workload, seed=seed, rate_trace=scenario_trace(scenario, workload),
        fidelity="fluid",
    )
    space = tournament_space()
    tuner = make_tuner(name, space, seed=seed, slo_delay=slo_delay)
    rule = PauseRule(*rule_args)
    report = driver(tuner, setup.system, space, budget, slo_delay, rule,
                    confirm)
    return (
        json.dumps(report.to_dict(), sort_keys=True),
        report.evaluated,
        json.dumps(tuner.checkpoint(), sort_keys=True),
        json.dumps(rule.checkpoint(), sort_keys=True),
    )


def _folded(tuner, system, scaler, budget, slo_delay, rule, confirm):
    return run_tuner(
        tuner, system, scaler, max_evaluations=budget, slo_delay=slo_delay,
        pause_rule=rule, confirm=confirm,
    )


class TestOneDrivingLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(tuner_names()),
        scenario=st.sampled_from(TOURNAMENT_SCENARIOS),
        workload=st.sampled_from(WORKLOADS),
        seed=st.integers(0, 2**16),
        budget=st.integers(1, 12),
        slo_delay=st.sampled_from([5.0, 30.0]),
        rule_args=st.tuples(
            st.integers(2, 10), st.sampled_from([0.5, 1.0, 5.0, 30.0])
        ),
        confirm=st.booleans(),
    )
    def test_run_tuner_matches_the_former_loop(
        self, name, scenario, workload, seed, budget, slo_delay, rule_args,
        confirm,
    ):
        args = (name, scenario, workload, seed, budget, slo_delay,
                rule_args, confirm)
        folded = _run(_folded, *args)
        reference = _run(_reference_run, *args)
        assert folded[0] == reference[0]  # the scored report
        assert folded[1] == reference[1]  # the ranked records, in order
        assert folded[2] == reference[2]  # the tuner's final state
        assert folded[3] == reference[3]  # the pause rule's history

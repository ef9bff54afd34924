"""Property-based tests: the tournament runs through NoStop's controller.

``run_tuner`` once had its own driving loop: its own Adjust function,
collector and pause rule, one ask per evaluation, the pause rule read
after each, and a stop at the pause; ``run_search`` then re-measured a
singleton winner through a second Adjust function.  That loop is kept
here verbatim as the reference.  For a random tuner, scenario, workload,
seed, pause rule and budget on the fluid tier, a controller built with
that rule (:meth:`NoStopController.run_until_pause` and
:meth:`NoStopController.confirm_best`) must rank the same records and
leave the same tuner checkpoint and pause rule history as the
reference; at the default rule, ``run_tuner`` must also give the same
scored report.  Both hold with and without the confirmation pass.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adjust import AdjustFunction, evaluate_config
from repro.core.metrics_collector import MetricsCollector
from repro.core.nostop import NoStopController
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


def _drawn_rule(n_best, threshold):
    """A pause rule over ``n_best`` configurations with spread ``threshold``."""
    return type("DrawnRule", (PauseRule,), {"STD_THRESHOLD": threshold})(n_best)


def _start(name, scenario, workload, seed, slo_delay):
    setup = build_experiment(
        workload, seed=seed, rate_trace=scenario_trace(scenario, workload),
        fidelity="fluid",
    )
    space = tournament_space()
    return setup.system, space, make_tuner(
        name, space, seed=seed, slo_delay=slo_delay
    )


_draws = dict(
    name=st.sampled_from(tuner_names()),
    scenario=st.sampled_from(TOURNAMENT_SCENARIOS),
    workload=st.sampled_from(WORKLOADS),
    seed=st.integers(0, 2**16),
    budget=st.integers(1, 12),
    slo_delay=st.sampled_from([5.0, 30.0]),
    confirm=st.booleans(),
)


class TestOneDrivingLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        rule_args=st.tuples(
            st.integers(2, 10), st.sampled_from([0.5, 1.0, 5.0, 30.0])
        ),
        **_draws,
    )
    def test_controller_matches_the_former_loop(
        self, name, scenario, workload, seed, budget, slo_delay, rule_args,
        confirm,
    ):
        """Any pause rule: the controller's loop and confirmation rank the
        same records, leave the tuner and the rule in the same state, and
        pause when the former loop converged."""
        start = (name, scenario, workload, seed, slo_delay)
        system, space, tuner = _start(*start)
        rule = _drawn_rule(*rule_args)
        controller = NoStopController(
            system, space, pause_rule=rule, harden=False, tuner=tuner
        )
        evaluated = controller.run_until_pause(budget)
        if confirm:
            controller.confirm_best(iteration=len(evaluated))

        ref_system, ref_space, ref_tuner = _start(*start)
        ref_rule = _drawn_rule(*rule_args)
        report = _reference_run(ref_tuner, ref_system, ref_space, budget,
                                slo_delay, ref_rule, confirm)
        assert evaluated == report.evaluated  # the ranked records, in order
        assert controller.paused is report.converged
        assert json.dumps(tuner.checkpoint(), sort_keys=True) == json.dumps(
            ref_tuner.checkpoint(), sort_keys=True
        )
        assert json.dumps(rule.checkpoint(), sort_keys=True) == json.dumps(
            ref_rule.checkpoint(), sort_keys=True
        )

    @settings(max_examples=60, deadline=None)
    @given(**_draws)
    def test_run_tuner_matches_the_former_loop(
        self, name, scenario, workload, seed, budget, slo_delay, confirm,
    ):
        """At the default pause rule, ``run_tuner`` gives the former
        loop's scored report, records and tuner state."""
        start = (name, scenario, workload, seed, slo_delay)
        system, space, tuner = _start(*start)
        folded = run_tuner(tuner, system, space, max_evaluations=budget,
                           slo_delay=slo_delay, confirm=confirm)
        ref_system, ref_space, ref_tuner = _start(*start)
        reference = _reference_run(ref_tuner, ref_system, ref_space, budget,
                                   slo_delay, PauseRule(), confirm)
        assert json.dumps(folded.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )
        assert folded.evaluated == reference.evaluated
        assert json.dumps(tuner.checkpoint(), sort_keys=True) == json.dumps(
            ref_tuner.checkpoint(), sort_keys=True
        )

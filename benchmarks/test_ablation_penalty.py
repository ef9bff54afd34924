"""Ablation — the ρ penalty schedule (Algorithm 1).

The paper motivates starting ρ small and growing it to a cap: "in the
beginning of the SPSA optimization process, the gain sequence is large,
and a large coefficient ρ may produce a large gradient, making the step
size too large to approach the optimal point", while "an excessively
large coefficient ρ would dilute the minimization goal".

Compared variants: the paper schedule (1 → 2 by +0.1), a fixed small
penalty (ρ ≡ 1), a fixed large penalty (ρ ≡ 5), and no penalty at all
(ρ ≡ 0 — the constraint vanishes).  The no-penalty variant must end
unstable; the paper schedule must find a stable config with low delay.
"""

from repro.analysis.tables import format_table
from repro.core.objective import RhoSchedule
from repro.experiments.common import build_experiment, make_controller

from .conftest import emit, run_once

WORKLOAD = "linear_regression"

VARIANTS = {
    "paper (1->2, +0.1)": RhoSchedule(initial=1.0, increment=0.1, cap=2.0),
    "fixed rho=1": RhoSchedule(initial=1.0, increment=0.0, cap=1.0),
    "fixed rho=5": RhoSchedule(initial=5.0, increment=0.0, cap=5.0),
    "no penalty (rho=0)": RhoSchedule(initial=0.0, increment=0.0, cap=0.0),
}


def run_variants(seed=13, rounds=30):
    results = {}
    for name, schedule in VARIANTS.items():
        setup = build_experiment(WORKLOAD, seed=seed)
        controller = make_controller(setup, seed=seed)
        controller.tuner.schedule = schedule
        report = controller.run(rounds)
        results[name] = (controller.pause_rule.best_config(), report)
    return results


def _trajectory_tail_interval(report, n=6):
    tail = [r.batch_interval for r in report.optimization_rounds()][-n:]
    return sum(tail) / len(tail)


def test_ablation_penalty(benchmark):
    results = run_once(benchmark, run_variants)
    emit(
        format_table(
            ["rho schedule", "best interval (s)", "proc (s)", "delay (s)",
             "stable", "trajectory tail (s)"],
            [
                (name, b.batch_interval, b.mean_processing_time,
                 b.end_to_end_delay, b.stable, _trajectory_tail_interval(rep))
                for name, (b, rep) in results.items()
            ],
            title=f"Ablation: penalty schedule ({WORKLOAD})",
        )
    )
    paper_best, paper_rep = results["paper (1->2, +0.1)"]
    _, np_rep = results["no penalty (rho=0)"]
    # Without the penalty the stability constraint vanishes from G and
    # the SPSA estimate dives toward the minimum interval, leaving the
    # system unstable at its operating point.
    assert _trajectory_tail_interval(np_rep) < 4.0
    unstable_tail = [
        r for r in np_rep.optimization_rounds()[-6:]
        if r.mean_processing_time is not None
        and r.mean_processing_time > r.batch_interval
    ]
    assert unstable_tail
    # The paper schedule lands on a stable configuration near the
    # stability frontier, not at a bound.
    assert paper_best.stable
    assert 4.0 <= paper_best.batch_interval <= 15.0
    # A fixed large penalty also finds stability (the cap exists to
    # avoid diluting interval minimization, not to preserve feasibility).
    assert results["fixed rho=5"][0].stable

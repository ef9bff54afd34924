"""Head-to-head: SPSA (NoStop) vs Bayesian optimization vs random search
vs grid search on the same live system (Fig. 8 extended).

All four optimizers drive identical deployments through the identical
Adjust measurement pathway, and the baselines share one tuning loop
(``run_tuner``) whose pause rule picks each winner stable-first.  The
table reports the paper's three axes — final delay, search time
(simulated seconds), configuration steps — with every final
configuration re-measured on a fresh deployment.

Run:  python examples/compare_optimizers.py
"""

from repro.analysis.tables import format_table
from repro.baselines.fixed import run_fixed_configuration
from repro.core.adjust import theta_to_configuration
from repro.core.pause import PauseRule
from repro.experiments.common import build_experiment, make_controller, run_search

WORKLOAD = "linear_regression"
SEED = 23


def honest_delay(theta, scaler) -> float:
    """Steady-state delay of a chosen configuration, measured fresh.

    Optimizers that evaluate each configuration once (grid / random
    search) would otherwise report the luckiest measurement window
    (winner's curse); a fresh fixed run levels the field.
    """
    interval, executors = theta_to_configuration(theta, scaler)[:2]
    setup = build_experiment(
        WORKLOAD, seed=SEED + 99,
        batch_interval=interval, num_executors=executors,
    )
    run = run_fixed_configuration(setup.context, batches=25, warmup=4)
    return run.mean_end_to_end_delay


def main() -> None:
    rows = []

    setup = build_experiment(WORKLOAD, seed=SEED)
    ctrl = make_controller(setup, seed=SEED)
    rep = ctrl.run(35)
    spsa_best = ctrl.pause_rule.best_config()
    spsa_steps = rep.adjust_calls_to_pause or ctrl.adjust.calls
    spsa_time = rep.search_time if rep.search_time is not None else setup.system.time
    rows.append(("SPSA (NoStop)", honest_delay(spsa_best.theta, setup.scaler),
                 spsa_time, spsa_steps,
                 "yes" if rep.first_pause_round else "no"))

    # A 6x6 grid stays exhaustive: the pause rule cannot fire before
    # every point has been measured.
    for label, tuner, budget, rule, options in (
        ("Bayesian opt", "bo", 70, None, {}),
        ("Random search", "random", 70, None, {}),
        ("Grid search (6x6)", "grid", 36, PauseRule(n_best=36),
         {"points_per_axis": 6}),
    ):
        setup = build_experiment(WORKLOAD, seed=SEED)
        run = run_search(setup, tuner, seed=SEED, max_evaluations=budget,
                         pause_rule=rule, confirm=tuner == "bo", **options)
        converged = "n/a" if tuner == "grid" else (
            "yes" if run.converged else "no")
        rows.append((label, honest_delay(run.best_theta, setup.scaler),
                     run.search_time, run.evaluations, converged))

    print(format_table(
        ["optimizer", "final delay (s)", "search time (s)",
         "config steps", "converged"],
        rows,
        title=f"Optimizer comparison on {WORKLOAD} "
              f"(paper rate band, final configs re-measured fresh)",
    ))
    print(
        "\nExpected shape (paper §6.4 + §1): comparable final delays, but\n"
        "SPSA converges with the fewest configuration steps; exhaustive\n"
        "grid search burns an order of magnitude more live changes."
    )


if __name__ == "__main__":
    main()

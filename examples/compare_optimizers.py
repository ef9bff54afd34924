"""Head-to-head: SPSA (NoStop) vs Bayesian optimization vs random search
vs grid search on the same live system (Fig. 8 extended).

All four optimizers drive identical deployments through the identical
Adjust measurement pathway, and the baselines share one tuning loop
(``NoStopController.run_until_pause``) whose pause rule picks each
winner stable-first.  The
table reports the paper's three axes — final delay, search time
(simulated seconds), configuration steps — with every final
configuration re-measured on a fresh deployment.

Run:  python examples/compare_optimizers.py
"""

from repro.analysis.tables import format_table
from repro.baselines.fixed import run_fixed_configuration
from repro.core.adjust import theta_to_configuration
from repro.core.nostop import NoStopController
from repro.core.pause import PauseRule
from repro.experiments.common import build_experiment, make_controller, run_search
from repro.tuners import make_tuner

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

    for label, tuner in (("Bayesian opt", "bo"), ("Random search", "random")):
        setup = build_experiment(WORKLOAD, seed=SEED)
        run = run_search(setup, tuner, seed=SEED, max_evaluations=70,
                         confirm=tuner == "bo")
        rows.append((label, honest_delay(run.best_theta, setup.scaler),
                     run.search_time, run.evaluations,
                     "yes" if run.converged else "no"))

    # The 5x5 grid stays exhaustive: a pause rule over all 25 points
    # cannot fire before every point has been measured.
    setup = build_experiment(WORKLOAD, seed=SEED)
    grid = NoStopController(
        setup.system, setup.scaler, pause_rule=PauseRule(n_best=25),
        harden=False, tuner=make_tuner("grid", setup.scaler, seed=SEED),
    )
    start = setup.system.time
    steps = len(grid.run_until_pause(25))
    rows.append(("Grid search (5x5)",
                 honest_delay(grid.pause_rule.best_config().theta, setup.scaler),
                 setup.system.time - start, steps, "n/a"))

    print(format_table(
        ["optimizer", "final delay (s)", "search time (s)",
         "config steps", "converged"],
        rows,
        title=f"Optimizer comparison on {WORKLOAD} "
              f"(paper rate band, final configs re-measured fresh)",
    ))
    best = min(rows, key=lambda row: row[1])
    fewest = min(rows, key=lambda row: row[3])
    print(
        f"\nLowest final delay: {best[0]} ({best[1]:.2f} s).\n"
        f"Fewest configuration steps: {fewest[0]} ({fewest[3]}).\n"
        "SPSA's steps are counted up to its first pause; the grid measures\n"
        "each of its 25 points once."
    )


if __name__ == "__main__":
    main()

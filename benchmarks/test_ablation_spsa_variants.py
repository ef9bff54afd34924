"""Ablation — SPSA measurement strategies on the live system.

The paper's §4.2.1 argues two measurements per iteration is SPSA's key
economy.  This bench compares, at equal *measurement* budget, the three
``NoStopTuner(probes=...)`` estimators:

* standard two-measurement SPSA (``probes=2``, the paper),
* one-measurement SPSA (``probes=1``: half the configuration changes per
  iteration, noisier gradients),
* gradient-averaged SPSA (``probes=4``, m=2: lower-variance steps, half
  the iterations).

All three minimize the same live objective through the same Adjust
pathway, at a fixed ρ = 2 and with no pause rule stopping them early, so
every row spends the whole budget.
"""

from repro.analysis.tables import format_table
from repro.core.adjust import AdjustFunction, evaluate_config
from repro.core.metrics_collector import MetricsCollector
from repro.core.pause import PauseRule
from repro.experiments.common import build_experiment
from repro.tuners import NoStopTuner

from .conftest import emit, run_once

WORKLOAD = "page_analyze"
MEASUREMENT_BUDGET = 48


def run_variant(probes, seed=37):
    setup = build_experiment(WORKLOAD, seed=seed)
    rule = PauseRule()
    adjust = AdjustFunction(setup.system, setup.scaler, MetricsCollector())
    tuner = NoStopTuner(setup.scaler, seed=seed, probes=probes)
    for _ in range(MEASUREMENT_BUDGET):
        theta = tuner.ask()
        result = adjust(theta, 2.0)
        rule.record(evaluate_config(result, theta, tuner.k + 1))
        tuner.observe(theta, result.objective)
    return {
        "best": rule.best_config(),
        "iterations": tuner.k,
        "measurements": MEASUREMENT_BUDGET,
        "config_changes": setup.system.config_changes,
    }


def run_all():
    return {
        "two-measurement (paper)": run_variant(probes=2),
        "one-measurement": run_variant(probes=1),
        "averaged (m=2)": run_variant(probes=4),
    }


def test_ablation_spsa_variants(benchmark):
    results = run_once(benchmark, run_all)
    emit(
        format_table(
            ["variant", "iterations", "measurements", "delay (s)", "stable"],
            [
                (name, r["iterations"], r["measurements"],
                 r["best"].end_to_end_delay, r["best"].stable)
                for name, r in results.items()
            ],
            title=f"Ablation: SPSA measurement strategy ({WORKLOAD}, "
                  f"budget {MEASUREMENT_BUDGET} measurements)",
        )
    )
    paper = results["two-measurement (paper)"]
    one = results["one-measurement"]
    avg = results["averaged (m=2)"]
    # Budget accounting: 1-measurement gets 2x the iterations, averaged
    # m=2 gets half.
    assert one["iterations"] == 2 * paper["iterations"]
    assert avg["iterations"] == paper["iterations"] // 2
    # The paper's standard form must land stable with competitive delay.
    assert paper["best"].stable
    delays = [r["best"].end_to_end_delay for r in results.values()]
    assert paper["best"].end_to_end_delay <= 1.5 * min(delays)

"""Ablation — the perturbation distribution (§5.3.1).

The paper uses symmetric Bernoulli ±1 perturbations (the standard SPSA
choice satisfying the finite-inverse-moment Condition B.6'').  A
segmented-uniform distribution is also valid; both must converge to
comparable configurations, demonstrating the scheme is not tied to the
specific Δ distribution.
"""

from repro.analysis.tables import format_table
from repro.core.perturbation import (
    BernoulliPerturbation,
    SegmentedUniformPerturbation,
)
from repro.experiments.common import build_experiment, make_controller

from .conftest import emit, run_once

WORKLOAD = "page_analyze"


def run_perturbation_variants(seed=29, rounds=30):
    variants = {
        "bernoulli ±1 (paper)": BernoulliPerturbation(),
        "segmented uniform ±[0.5,1.5]": SegmentedUniformPerturbation(0.5, 1.5),
    }
    results = {}
    for name, perturbation in variants.items():
        setup = build_experiment(WORKLOAD, seed=seed)
        controller = make_controller(setup, seed=seed)
        controller.tuner.perturbation = perturbation
        controller.run(rounds)
        results[name] = controller.pause_rule.best_config()
    return results


def test_ablation_perturbation(benchmark):
    results = run_once(benchmark, run_perturbation_variants)
    emit(
        format_table(
            ["perturbation", "interval (s)", "delay (s)", "stable"],
            [
                (name, b.batch_interval, b.end_to_end_delay, b.stable)
                for name, b in results.items()
            ],
            title=f"Ablation: perturbation distribution ({WORKLOAD})",
        )
    )
    bern = results["bernoulli ±1 (paper)"]
    segu = results["segmented uniform ±[0.5,1.5]"]
    assert bern.stable and segu.stable
    ratio = bern.end_to_end_delay / segu.end_to_end_delay
    assert 0.5 < ratio < 2.0  # comparable outcomes

"""``repro check`` orchestration: run a target with invariants attached.

A *check run* assembles one of the repository's standard scenarios,
attaches an :class:`~repro.check.invariants.InvariantEngine` before the
first batch, drives the run to completion, and then evaluates the
analytic oracles over the recorded batches:

* ``quickstart`` — the README's fixed-configuration run (WordCount at
  the default 10 s x 10 executors).
* ``fig7`` — one NoStop optimization cell of the paper's Fig. 7 protocol
  (SPSA rounds, pause rule, rate monitor).
* ``chaos`` — the standard two-fault chaos scenario with the hardened
  controller.  Faults deliberately violate steady-state assumptions, so
  oracle deltas are informational there; invariants still gate.

The optional metamorphic pass additionally runs a k=2 time-dilated twin
of the logistic-regression workload and the executor-homogeneity
identity, folding their results into the same report.
"""

from __future__ import annotations

from typing import Optional

from .invariants import InvariantEngine
from .metamorphic import (
    dilated_experiment_kwargs,
    executor_homogeneity_check,
    time_dilation_check,
)
from .oracles import run_oracles
from .violations import CheckReport

CHECK_TARGETS = ("quickstart", "fig7", "chaos")

#: Defaults mirroring the shipped examples: quickstart uses the README
#: seed, fig7 the figure protocol's base seed, chaos the example script.
_DEFAULT_SEEDS = {"quickstart": 42, "fig7": 1, "chaos": 7}
_DEFAULT_WORKLOADS = {
    "quickstart": "wordcount",
    "fig7": "wordcount",
    "chaos": "wordcount",
}


def run_check(
    target: str = "quickstart",
    workload: Optional[str] = None,
    seed: Optional[int] = None,
    batches: int = 30,
    rounds: int = 40,
    warmup: int = 5,
    metamorphic: bool = False,
    fidelity: str = "exact",
) -> CheckReport:
    """Run one check target end to end and return its report.

    ``fidelity`` selects the simulation tier the target runs on.  Every
    tier exposes the same boundary-hook and listener surface, so the
    :class:`InvariantEngine` is attached before the first batch on any
    of them and picks the check set the tier's substrate supports.  The
    analytic oracles are tier-independent too — they are exactly the
    cross-tier equivalence contract.  Chaos fault models hook the exact
    engine's internals and therefore require ``fidelity="exact"``.
    """
    from repro.experiments.common import build_experiment, make_controller
    from repro.obs import Telemetry, governance_report

    if target not in CHECK_TARGETS:
        raise ValueError(
            f"unknown check target {target!r}; expected one of {CHECK_TARGETS}"
        )
    if target == "chaos" and fidelity != "exact":
        raise ValueError(
            "the chaos target requires the exact tier "
            f"(got fidelity={fidelity!r})"
        )
    workload = workload or _DEFAULT_WORKLOADS[target]
    seed = _DEFAULT_SEEDS[target] if seed is None else seed

    # Telemetry is live so governance can diff the run's actual series
    # against the catalog (tracing-parity CI guarantees telemetry is
    # pure observation — it changes no simulated result).
    setup = build_experiment(
        workload, seed=seed, telemetry=Telemetry(), fidelity=fidelity
    )
    engine = InvariantEngine(setup.context)
    gate_oracles = True

    if target == "quickstart":
        from repro.baselines.fixed import run_fixed_configuration

        run_fixed_configuration(setup.context, batches=batches, warmup=warmup)
    elif target == "fig7":
        controller = make_controller(setup, seed=seed)
        controller.run(rounds)
    else:  # chaos
        from repro.chaos.runner import run_chaos_scenario, standard_chaos_schedule

        run_chaos_scenario(
            setup, standard_chaos_schedule(), rounds=rounds, seed=seed
        )
        gate_oracles = False

    report = CheckReport(
        target=target,
        workload=workload,
        seed=seed,
        checks_run=engine.checks_run,
        batches_checked=engine.batches_checked,
        violations=list(engine.violations),
        oracles=run_oracles(setup, warmup=warmup),
        gate_oracles=gate_oracles,
        governance=governance_report(setup.context.telemetry.metrics),
    )

    if metamorphic:
        report.oracles.extend(_metamorphic_results(seed, batches, warmup))
    return report


def _metamorphic_results(seed: int, batches: int, warmup: int):
    """Time-dilation twin + executor-homogeneity identity."""
    from repro.baselines.fixed import run_fixed_configuration
    from repro.experiments.common import build_experiment

    k = 2.0
    wl = "logistic_regression"  # pure-compute stages: dilation is exact
    base = build_experiment(wl, seed=seed)
    run_fixed_configuration(base.context, batches=batches, warmup=warmup)
    dilated = build_experiment(
        wl, seed=seed, **dilated_experiment_kwargs(wl, k, seed=seed)
    )
    run_fixed_configuration(dilated.context, batches=batches, warmup=warmup)
    stability, delay = time_dilation_check(
        base.context.listener.metrics.batches[warmup:],
        dilated.context.listener.metrics.batches[warmup:],
        k,
    )
    homogeneity = executor_homogeneity_check(base.workload, seed=seed)
    return [stability, delay, homogeneity]

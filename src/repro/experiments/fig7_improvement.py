"""Fig. 7 — end-to-end delay improvement over the default configuration.

For each workload: run NoStop to (near-)convergence, then measure the
steady-state end-to-end delay of its final configuration on a fresh
deployment, against the same measurement for the untuned default
configuration (mid-range 20 s interval, 10 executors — see
``repro.baselines.fixed.DEFAULT_CONFIGURATION``).  "We repeat NoStop
optimization experiments five times for each workload and plot the
average performance measurement with the standard deviation" (§6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import Summary, improvement_factor, summarize
from repro.analysis.tables import format_table
from repro.baselines.fixed import DEFAULT_CONFIGURATION
from repro.runner import SweepRunner, SweepSpec, is_failure

from .common import paper_repeat_seeds
from .fig6_evolution import PAPER_WORKLOADS


@dataclass
class WorkloadImprovement:
    """Fig. 7 bars for one workload (mean ± std over repeats)."""

    workload: str
    nostop_delays: List[float] = field(default_factory=list)
    default_delays: List[float] = field(default_factory=list)
    final_intervals: List[float] = field(default_factory=list)
    final_executors: List[int] = field(default_factory=list)
    failed_repeats: int = 0
    """Repeats dropped because a cell failed (supervised sweeps degrade
    to fewer repeats instead of losing the whole figure)."""

    @property
    def nostop(self) -> Summary:
        return summarize(self.nostop_delays)

    @property
    def default(self) -> Summary:
        return summarize(self.default_delays)

    @property
    def improvement(self) -> float:
        """How many times smaller NoStop's delay is than the default's."""
        return improvement_factor(self.default.mean, self.nostop.mean)


@dataclass
class Fig7Result:
    workloads: Dict[str, WorkloadImprovement] = field(default_factory=dict)

    def to_table(self) -> str:
        rows = []
        for name, w in self.workloads.items():
            rows.append(
                (
                    name,
                    f"{w.nostop.mean:.2f} ± {w.nostop.std:.2f}",
                    f"{w.default.mean:.2f} ± {w.default.std:.2f}",
                    w.improvement,
                )
            )
        return format_table(
            ["workload", "NoStop e2e (s)", "default e2e (s)", "improvement x"],
            rows,
            title="Fig. 7: delay vs. default configuration (mean ± std over repeats)",
        )


def fig7_optimize_spec(
    workload: str,
    repeats: int = 5,
    rounds: int = 40,
    base_seed: int = 1,
    count_only: bool = False,
    fidelity: str = "exact",
) -> SweepSpec:
    """Stage 1: the per-repeat NoStop optimization runs."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    base = {"workload": workload, "rounds": rounds, "count_only": count_only}
    if fidelity != "exact":
        # Only non-default tiers enter the cell params, so exact-tier
        # cell digests (cache keys, journal identities) are unchanged.
        base["fidelity"] = fidelity
    return SweepSpec(
        name=f"fig7-{workload}-optimize",
        kind="nostop",
        base=base,
        cases=[{"seed": s} for s in paper_repeat_seeds(base_seed, repeats)],
    )


def fig7_measure_spec(
    workload: str,
    reports: Sequence[dict],
    base_seed: int = 1,
    count_only: bool = False,
    fidelity: str = "exact",
) -> SweepSpec:
    """Stage 2: steady-state measurement of the stage-1 outcomes.

    Each repeat contributes two cells — NoStop's final configuration and
    the untuned default — both measured with the repeat's ``seed + 7``,
    exactly the sequential protocol.  A repeat whose optimization cell
    failed contributes nothing, but surviving repeats keep their
    *original* rep number so their measurement seeds are unchanged —
    with no failures the spec is byte-identical to the unsupervised one.
    """
    cases = []
    for rep, report in enumerate(reports):
        if is_failure(report):
            continue
        seed = base_seed + 100 * rep + 7
        cases.append(
            {
                "batch_interval": report["finalInterval"],
                "num_executors": report["finalExecutors"],
                "seed": seed,
            }
        )
        cases.append(
            {
                "batch_interval": DEFAULT_CONFIGURATION.batch_interval,
                "num_executors": DEFAULT_CONFIGURATION.num_executors,
                "seed": seed,
            }
        )
    base = {
        "workload": workload,
        "batches": 40,
        "warmup": 5,
        "count_only": count_only,
    }
    if fidelity != "exact":
        base["fidelity"] = fidelity
    return SweepSpec(
        name=f"fig7-{workload}-measure",
        kind="fixed_config",
        base=base,
        cases=cases,
    )


def run_fig7_one(
    workload: str,
    repeats: int = 5,
    rounds: int = 40,
    base_seed: int = 1,
    runner: Optional[SweepRunner] = None,
    count_only: bool = False,
    fidelity: str = "exact",
) -> WorkloadImprovement:
    """Fig. 7 measurement for one workload.

    Two chained sweeps through the runner: the optimization repeats,
    then the measurement cells their final configurations imply.
    """
    runner = runner or SweepRunner()
    optimize = runner.run(
        fig7_optimize_spec(
            workload,
            repeats=repeats,
            rounds=rounds,
            base_seed=base_seed,
            count_only=count_only,
            fidelity=fidelity,
        )
    )
    measure = runner.run(
        fig7_measure_spec(
            workload,
            optimize.results,
            base_seed=base_seed,
            count_only=count_only,
            fidelity=fidelity,
        )
    )
    result = WorkloadImprovement(workload=workload)
    survivors = [r for r in optimize.results if not is_failure(r)]
    result.failed_repeats = len(optimize.results) - len(survivors)
    # measure.results pairs up with survivors in order: fig7_measure_spec
    # skipped failed repeats, so surviving repeat i owns cells 2i, 2i+1.
    for i, report in enumerate(survivors):
        nostop_cell = measure.results[2 * i]
        default_cell = measure.results[2 * i + 1]
        if is_failure(nostop_cell) or is_failure(default_cell):
            result.failed_repeats += 1
            continue
        result.final_intervals.append(report["finalInterval"])
        result.final_executors.append(report["finalExecutors"])
        result.nostop_delays.append(nostop_cell["meanEndToEndDelay"])
        result.default_delays.append(default_cell["meanEndToEndDelay"])
    return result


def run_fig7(
    repeats: int = 5,
    rounds: int = 40,
    base_seed: int = 1,
    workloads=PAPER_WORKLOADS,
    runner: Optional[SweepRunner] = None,
    count_only: bool = False,
    fidelity: str = "exact",
) -> Fig7Result:
    """Full Fig. 7 over the four paper workloads."""
    runner = runner or SweepRunner()
    result = Fig7Result()
    for w in workloads:
        result.workloads[w] = run_fig7_one(
            w,
            repeats=repeats,
            rounds=rounds,
            base_seed=base_seed,
            runner=runner,
            count_only=count_only,
            fidelity=fidelity,
        )
    return result


if __name__ == "__main__":
    print(run_fig7().to_table())

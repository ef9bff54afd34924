"""Fig. 8 — SPSA (NoStop) versus Bayesian Optimization.

Both optimizers drive the identical live system through the identical
Adjust measurement pathway and stop under the identical impeded-progress
rule; the comparison axes are the paper's three (§6.4):

* final optimization result — steady-state delay of the best
  configuration found ("the final optimization results are comparable");
* search time — simulated seconds until convergence (or budget
  exhaustion);
* configuration steps — live configuration changes consumed.

Expected outcome: comparable final delay, with SPSA needing fewer
configuration steps and less search time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.stats import Summary, summarize
from repro.analysis.tables import format_table
from repro.runner import SweepRunner, SweepSpec

from .common import paper_repeat_seeds
from .fig6_evolution import PAPER_WORKLOADS


@dataclass(frozen=True)
class OptimizerRun:
    """One optimizer run's Fig. 8 measurements."""

    optimizer: str
    final_delay: float
    search_time: float
    config_steps: int
    converged: bool


@dataclass
class WorkloadComparison:
    """SPSA-vs-BO repeats for one workload."""

    workload: str
    spsa: List[OptimizerRun] = field(default_factory=list)
    bo: List[OptimizerRun] = field(default_factory=list)

    def summary(self, attr: str) -> Dict[str, Summary]:
        return {
            "spsa": summarize([getattr(r, attr) for r in self.spsa]),
            "bo": summarize([getattr(r, attr) for r in self.bo]),
        }


@dataclass
class Fig8Result:
    workloads: Dict[str, WorkloadComparison] = field(default_factory=dict)

    def to_table(self) -> str:
        rows = []
        for name, cmp_ in self.workloads.items():
            delay = cmp_.summary("final_delay")
            time_ = cmp_.summary("search_time")
            steps = cmp_.summary("config_steps")
            for opt in ("spsa", "bo"):
                rows.append(
                    (
                        name,
                        opt.upper(),
                        f"{delay[opt].mean:.2f} ± {delay[opt].std:.2f}",
                        f"{time_[opt].mean:.0f} ± {time_[opt].std:.0f}",
                        f"{steps[opt].mean:.1f} ± {steps[opt].std:.1f}",
                    )
                )
        return format_table(
            ["workload", "optimizer", "final delay (s)",
             "search time (s)", "config steps"],
            rows,
            title="Fig. 8: SPSA vs Bayesian Optimization (mean ± std over repeats)",
        )


def _spsa_run_from_cell(result: dict) -> OptimizerRun:
    return OptimizerRun(
        optimizer="spsa",
        final_delay=result["best"]["endToEndDelay"],
        search_time=result["searchTime"],
        config_steps=result["configSteps"],
        converged=result["converged"],
    )


def _bo_run_from_cell(result: dict) -> OptimizerRun:
    return OptimizerRun(
        optimizer="bo",
        final_delay=result["finalDelay"],
        search_time=result["searchTime"],
        config_steps=result["configSteps"],
        converged=result["converged"],
    )


def fig8_spsa_spec(
    workload: str,
    repeats: int = 5,
    rounds: int = 40,
    base_seed: int = 1,
    count_only: bool = False,
    fidelity: str = "exact",
) -> SweepSpec:
    """The NoStop side of the Fig. 8 comparison (one cell per repeat)."""
    base = {"workload": workload, "rounds": rounds, "count_only": count_only}
    if fidelity != "exact":
        # Only non-default tiers enter the cell params, so exact-tier
        # cell digests (cache keys, journal identities) are unchanged.
        base["fidelity"] = fidelity
    return SweepSpec(
        name=f"fig8-{workload}-spsa",
        kind="nostop",
        base=base,
        cases=[{"seed": s} for s in paper_repeat_seeds(base_seed, repeats)],
    )


def fig8_bo_spec(
    workload: str,
    repeats: int = 5,
    bo_evaluations: int = 80,
    base_seed: int = 1,
    count_only: bool = False,
    fidelity: str = "exact",
) -> SweepSpec:
    """The Bayesian-optimization side of the Fig. 8 comparison."""
    base = {
        "workload": workload,
        "max_evaluations": bo_evaluations,
        "count_only": count_only,
    }
    if fidelity != "exact":
        base["fidelity"] = fidelity
    return SweepSpec(
        name=f"fig8-{workload}-bo",
        kind="bo",
        base=base,
        cases=[{"seed": s} for s in paper_repeat_seeds(base_seed, repeats)],
    )


def run_fig8_one(
    workload: str,
    repeats: int = 5,
    rounds: int = 40,
    bo_evaluations: int = 80,
    base_seed: int = 1,
    runner: Optional[SweepRunner] = None,
    count_only: bool = False,
    fidelity: str = "exact",
) -> WorkloadComparison:
    """SPSA-vs-BO repeats for one workload.

    ``bo_evaluations`` defaults to the same measurement budget NoStop
    consumes (2 per round x ``rounds``) so neither side gets extra
    system time.
    """
    runner = runner or SweepRunner()
    spsa = runner.run(
        fig8_spsa_spec(
            workload,
            repeats=repeats,
            rounds=rounds,
            base_seed=base_seed,
            count_only=count_only,
            fidelity=fidelity,
        )
    )
    bo = runner.run(
        fig8_bo_spec(
            workload,
            repeats=repeats,
            bo_evaluations=bo_evaluations,
            base_seed=base_seed,
            count_only=count_only,
            fidelity=fidelity,
        )
    )
    cmp_ = WorkloadComparison(workload=workload)
    cmp_.spsa.extend(_spsa_run_from_cell(r) for r in spsa.results)
    cmp_.bo.extend(_bo_run_from_cell(r) for r in bo.results)
    return cmp_


def run_fig8(
    repeats: int = 5,
    rounds: int = 40,
    bo_evaluations: int = 80,
    base_seed: int = 1,
    workloads=PAPER_WORKLOADS,
    runner: Optional[SweepRunner] = None,
    count_only: bool = False,
    fidelity: str = "exact",
) -> Fig8Result:
    """Full Fig. 8 over the four paper workloads."""
    runner = runner or SweepRunner()
    result = Fig8Result()
    for w in workloads:
        result.workloads[w] = run_fig8_one(
            w,
            repeats=repeats,
            rounds=rounds,
            bo_evaluations=bo_evaluations,
            base_seed=base_seed,
            runner=runner,
            count_only=count_only,
            fidelity=fidelity,
        )
    return result


if __name__ == "__main__":
    print(run_fig8(repeats=3).to_table())

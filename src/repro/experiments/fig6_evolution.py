"""Fig. 6 — NoStop's optimization evolution per workload.

Runs NoStop on each of the four workloads under its Fig. 5 rate band and
records, per control round, the batch interval of the current estimate
and the measured processing time / delay.  Expected shapes (§6.3): the
interval decreases toward the stability frontier while processing time
tracks it from below; the ML workloads' trajectories are noisier
(iteration-count variance), WordCount's is the most stable, Page
Analyze's is complex but steady.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.tables import format_series
from repro.core.nostop import NoStopReport

from .common import build_experiment, make_controller

PAPER_WORKLOADS = (
    "logistic_regression",
    "linear_regression",
    "wordcount",
    "page_analyze",
)


@dataclass
class EvolutionTrace:
    """Per-round evolution series for one workload."""

    workload: str
    rounds: List[int] = field(default_factory=list)
    intervals: List[float] = field(default_factory=list)
    executors: List[int] = field(default_factory=list)
    processing_times: List[Optional[float]] = field(default_factory=list)
    delays: List[Optional[float]] = field(default_factory=list)
    phases: List[str] = field(default_factory=list)
    report: Optional[NoStopReport] = None

    def final_interval(self) -> float:
        return self.intervals[-1]

    def interval_decreased(self) -> bool:
        """Did the interval estimate come down from the mid-range start?"""
        return self.intervals[-1] < self.intervals[0]

    def stable_at_end(self, last_n: int = 5) -> bool:
        """Whether the run ends in a stable operating configuration.

        The configuration NoStop settles on is its best evaluation (the
        one it parks at when paused); optimization rounds deliberately
        keep probing unstable neighbours, so the raw tail of the probe
        series is not the right stability witness.
        """
        if self.report is not None and self.report.best is not None:
            return bool(self.report.best.stable)
        pairs = [
            (i, p)
            for i, p in zip(self.intervals[-last_n:], self.processing_times[-last_n:])
            if p is not None
        ]
        if not pairs:
            return False
        return all(p <= i * 1.10 for i, p in pairs)

    def processing_noise(self) -> float:
        """Round-to-round variation of processing time (for the §6.3
        ML-noisier-than-WordCount comparison)."""
        vals = [p for p in self.processing_times if p is not None]
        if len(vals) < 3:
            return 0.0
        diffs = np.abs(np.diff(vals))
        return float(np.mean(diffs) / max(np.mean(vals), 1e-9))

    def to_text(self) -> str:
        return format_series(
            f"Fig. 6 interval evolution ({self.workload})",
            self.rounds,
            self.intervals,
            unit="s",
        )


def run_fig6_one(
    workload: str,
    rounds: int = 40,
    seed: int = 1,
) -> EvolutionTrace:
    """NoStop evolution for one workload."""
    setup = build_experiment(workload, seed=seed)
    controller = make_controller(setup, seed=seed)
    # Round 0: the initial configuration θ_initial (scaled mid-range)
    # before any optimization — the reference the evolution is judged
    # against ("even [as] the data input speed changes overtime, the
    # batch interval can keep decreasing", §6.3).
    from repro.core.adjust import theta_to_configuration

    interval0, executors0 = theta_to_configuration(
        controller.tuner.theta, setup.scaler
    )[:2]
    report = controller.run(rounds)
    trace = EvolutionTrace(workload=workload, report=report)
    trace.rounds.append(0)
    trace.intervals.append(interval0)
    trace.executors.append(executors0)
    trace.processing_times.append(None)
    trace.delays.append(None)
    trace.phases.append("initial")
    for r in report.rounds:
        trace.rounds.append(r.round_index)
        trace.intervals.append(r.batch_interval)
        trace.executors.append(r.num_executors)
        trace.processing_times.append(r.mean_processing_time)
        trace.delays.append(r.mean_delay)
        trace.phases.append(r.phase)
    return trace


def run_fig6(
    rounds: int = 40,
    seed: int = 1,
    workloads=PAPER_WORKLOADS,
) -> Dict[str, EvolutionTrace]:
    """NoStop evolution for all four paper workloads."""
    return {w: run_fig6_one(w, rounds=rounds, seed=seed) for w in workloads}


if __name__ == "__main__":
    for name, trace in run_fig6().items():
        print(trace.to_text())
        print(
            f"  final: {trace.final_interval():.2f} s x "
            f"{trace.executors[-1]} executors, "
            f"noise={trace.processing_noise():.3f}\n"
        )

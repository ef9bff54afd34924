"""ChaosReport: deterministic, serializable outcome of a chaos scenario.

The report is the artifact the paper's robustness claims are judged by:
per-event time-to-recover and delay overshoot, plus the optimizer-side
counters showing what the hardening machinery did (poisoned SPSA steps
avoided, outlier windows rejected, guarded reconfigurations).

``to_json`` is byte-deterministic for a given (seed, schedule) pair:
keys are sorted, floats are emitted via ``repr`` (exact round-trip), and
every value derives from seeded simulation state — so two consecutive
runs of the same scenario diff clean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.chaos import delay_overshoot, time_to_recover
from repro.streaming.metrics import BatchInfo

from .engine import EventRecord


def _finite_or_none(x: Optional[float]) -> Optional[float]:
    """JSON has no Infinity; encode 'never recovered' as null."""
    if x is None or not math.isfinite(x):
        return None
    return x


@dataclass
class EventOutcome:
    """One fault firing joined with its recovery metrics."""

    record: EventRecord
    mttr: float
    """Seconds from injection to sustained stability (inf = never)."""
    overshoot: Optional[float]
    """Peak end-to-end delay above pre-fault baseline, if measurable."""

    def to_dict(self) -> Dict[str, object]:
        payload = self.record.to_dict()
        payload["mttr"] = _finite_or_none(self.mttr)
        payload["delayOvershoot"] = _finite_or_none(self.overshoot)
        return payload


@dataclass
class ChaosReport:
    """Everything a chaos scenario produced, ready to serialize."""

    #: Post-fault objective slack allowed by :meth:`reconverged`.
    RECONVERGE_TOLERANCE = 0.10

    scenario: str
    seed: int
    hardened: bool
    events: List[EventOutcome] = field(default_factory=list)

    # optimizer-side counters (zero when no controller was attached)
    poisoned_steps_avoided: int = 0
    poisoned_steps_taken: int = 0
    corrupted_retries: int = 0
    outlier_batches_rejected: int = 0
    failed_applies: int = 0
    rate_resets: int = 0
    executor_failures: int = 0

    # convergence bookkeeping
    pre_fault_objective: Optional[float] = None
    post_fault_objective: Optional[float] = None

    batches_processed: int = 0
    sim_duration: float = 0.0

    # -- aggregates ----------------------------------------------------------

    @property
    def mean_mttr(self) -> float:
        """Mean time-to-recover over events that did recover (inf if any
        event never recovered, which is the honest aggregate)."""
        if not self.events:
            return 0.0
        values = [e.mttr for e in self.events]
        if any(not math.isfinite(v) for v in values):
            return math.inf
        return sum(values) / len(values)

    @property
    def max_overshoot(self) -> Optional[float]:
        values = [e.overshoot for e in self.events if e.overshoot is not None]
        return max(values) if values else None

    @property
    def recovered(self) -> bool:
        return bool(self.events) and math.isfinite(self.mean_mttr)

    def reconverged(self) -> bool:
        """Whether NoStop's post-fault objective is within
        ``RECONVERGE_TOLERANCE`` of its pre-fault objective (the §4.1
        transparency claim)."""
        if self.pre_fault_objective is None or self.post_fault_objective is None:
            return False
        return (
            self.post_fault_objective
            <= self.pre_fault_objective * (1.0 + self.RECONVERGE_TOLERANCE)
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "hardened": self.hardened,
            "events": [e.to_dict() for e in self.events],
            "meanMttr": _finite_or_none(self.mean_mttr),
            "maxDelayOvershoot": _finite_or_none(self.max_overshoot),
            "recovered": self.recovered,
            "poisonedStepsAvoided": self.poisoned_steps_avoided,
            "poisonedStepsTaken": self.poisoned_steps_taken,
            "corruptedRetries": self.corrupted_retries,
            "outlierBatchesRejected": self.outlier_batches_rejected,
            "failedApplies": self.failed_applies,
            "rateResets": self.rate_resets,
            "executorFailures": self.executor_failures,
            "preFaultObjective": self.pre_fault_objective,
            "postFaultObjective": self.post_fault_objective,
            "reconverged": self.reconverged(),
            "batchesProcessed": self.batches_processed,
            "simDuration": self.sim_duration,
        }

    def to_json(self) -> str:
        """Deterministic JSON: sorted keys, no wall-clock, no set order."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def build_event_outcomes(
    records: Sequence[EventRecord],
    batches: Sequence[BatchInfo],
) -> List[EventOutcome]:
    """Join the engine's firing log with recovery metrics from batches.

    A fault has recovered once three consecutive stable batches complete
    (:data:`~repro.analysis.chaos.RECOVERY_BATCHES`).
    """
    outcomes: List[EventOutcome] = []
    for rec in records:
        mttr = time_to_recover(batches, fault_start=rec.fired_at)
        overshoot = delay_overshoot(
            batches,
            fault_start=rec.fired_at,
            recovered_by=(
                rec.fired_at + mttr if math.isfinite(mttr) else None
            ),
        )
        outcomes.append(EventOutcome(record=rec, mttr=mttr, overshoot=overshoot))
    return outcomes

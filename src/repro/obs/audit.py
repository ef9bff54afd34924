"""SPSA decision audit trail.

Every configuration change NoStop makes should be explainable post-hoc:
*which* perturbation Δ_k was drawn, *what* both probes measured, *what*
gradient estimate followed, *which* gains scaled the step, *where* the
box projection clipped, and *when* the pause / resume / reset rules
fired.  The trail records exactly those quantities per optimization
round, and :meth:`AuditTrail.replay` recomputes the SPSA arithmetic from
the recorded inputs to prove the log is faithful to the optimizer's
actual steps (the acceptance check of ISSUE 2).

Records are plain tuples-of-floats dataclasses — JSONL-serializable,
numpy-free on the wire — so a trail written by ``repro trace`` can be
audited by any external tool.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Absolute tolerance for replay comparisons; the trail stores full
#: float64 reprs so replay error is pure arithmetic noise.
REPLAY_ATOL = 1e-9


@dataclass(frozen=True)
class SPSADecision:
    """One SPSA iteration (or guarded non-iteration), fully explained."""

    round_index: int
    k: int
    """Optimizer iteration counter *after* this round (unchanged when
    guarded)."""
    sim_time: float
    rho: float
    a_k: float
    c_k: float
    theta: Tuple[float, ...]
    """Estimate the round started from (scaled space)."""
    delta: Tuple[float, ...]
    theta_plus: Tuple[float, ...]
    theta_minus: Tuple[float, ...]
    probe_clipped: Tuple[bool, ...]
    """Per axis: the box projection moved θ⁺ or θ⁻ off θ ± c_k Δ."""
    y_plus: float
    y_minus: float
    gradient: Optional[Tuple[float, ...]]
    """ĝ_k as the optimizer computed it; None when the round was guarded
    (no SPSA update consumed the measurements)."""
    theta_next: Tuple[float, ...]
    step_clipped: Tuple[bool, ...]
    """Per axis: the projection clipped θ_k − a_k ĝ_k."""
    guarded: bool = False
    plus_corrupted: bool = False
    minus_corrupted: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "decision",
            "round": self.round_index,
            "k": self.k,
            "simTime": self.sim_time,
            "rho": self.rho,
            "aK": self.a_k,
            "cK": self.c_k,
            "theta": list(self.theta),
            "delta": list(self.delta),
            "thetaPlus": list(self.theta_plus),
            "thetaMinus": list(self.theta_minus),
            "probeClipped": list(self.probe_clipped),
            "yPlus": self.y_plus,
            "yMinus": self.y_minus,
            "gradient": None if self.gradient is None else list(self.gradient),
            "thetaNext": list(self.theta_next),
            "stepClipped": list(self.step_clipped),
            "guarded": self.guarded,
            "plusCorrupted": self.plus_corrupted,
            "minusCorrupted": self.minus_corrupted,
        }


@dataclass(frozen=True)
class RuleFiring:
    """A §5 operational rule taking effect, or a checkpoint recovery."""

    kind: str
    """``"pause"``, ``"resume"``, ``"reset"``, or ``"restore"``
    (controller rebuilt from a checkpoint after a driver failure)."""
    round_index: int
    sim_time: float
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "rule",
            "kind": self.kind,
            "round": self.round_index,
            "simTime": self.sim_time,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ReplayMismatch:
    """One discrepancy found while replaying the trail."""

    round_index: int
    what: str
    recorded: Tuple[float, ...]
    recomputed: Tuple[float, ...]


class AuditTrail:
    """Accumulates decisions and rule firings for one controller run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.decisions: List[SPSADecision] = []
        self.firings: List[RuleFiring] = []

    def record_decision(self, decision: SPSADecision) -> None:
        if self.enabled:
            self.decisions.append(decision)

    def record_firing(
        self, kind: str, round_index: int, sim_time: float, detail: str = ""
    ) -> None:
        if not self.enabled:
            return
        if kind not in ("pause", "resume", "reset", "restore"):
            raise ValueError(f"unknown rule kind {kind!r}")
        self.firings.append(
            RuleFiring(
                kind=kind, round_index=round_index,
                sim_time=sim_time, detail=detail,
            )
        )

    def __len__(self) -> int:
        return len(self.decisions)

    # -- replay --------------------------------------------------------------

    def replay(self, box=None) -> List[ReplayMismatch]:
        """Recompute every recorded step from its inputs; return mismatches.

        For each non-guarded decision the gradient is rebuilt as
        ``(y⁺ − y⁻) / (2 c_k Δ)`` and compared elementwise against the
        recorded estimate; with ``box`` supplied (the optimizer's scaled
        :class:`~repro.core.bounds.Box`), the next estimate
        ``project(θ − a_k ĝ)`` is verified too.  An empty list means the
        trail exactly explains the optimizer's trajectory.
        """
        mismatches: List[ReplayMismatch] = []
        for d in self.decisions:
            if d.guarded:
                # A guarded round must not have moved the estimate.
                if any(
                    abs(a - b) > REPLAY_ATOL for a, b in zip(d.theta, d.theta_next)
                ):
                    mismatches.append(
                        ReplayMismatch(d.round_index, "guarded_moved",
                                       d.theta, d.theta_next)
                    )
                continue
            if d.gradient is None:
                mismatches.append(
                    ReplayMismatch(d.round_index, "missing_gradient", (), ())
                )
                continue
            recomputed = tuple(
                (d.y_plus - d.y_minus) / (2.0 * d.c_k * dv) for dv in d.delta
            )
            if any(
                abs(a - b) > REPLAY_ATOL for a, b in zip(d.gradient, recomputed)
            ):
                mismatches.append(
                    ReplayMismatch(d.round_index, "gradient",
                                   d.gradient, recomputed)
                )
                continue
            if box is not None:
                stepped = tuple(
                    t - d.a_k * g for t, g in zip(d.theta, recomputed)
                )
                projected = tuple(float(v) for v in box.project(stepped))
                if any(
                    abs(a - b) > REPLAY_ATOL
                    for a, b in zip(d.theta_next, projected)
                ):
                    mismatches.append(
                        ReplayMismatch(d.round_index, "theta_next",
                                       d.theta_next, projected)
                    )
        return mismatches

    # -- serialization -------------------------------------------------------

    def to_jsonl(self) -> str:
        """Decisions and rule firings interleaved in round order."""
        entries = [d.to_dict() for d in self.decisions] + [
            f.to_dict() for f in self.firings
        ]
        entries.sort(key=lambda e: (e["round"], 0 if e["type"] == "decision" else 1))
        return "\n".join(json.dumps(e, sort_keys=True) for e in entries)

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl() + "\n")
        return path


def clipped_axes(
    requested: Sequence[float], applied: Sequence[float], atol: float = 1e-12
) -> Tuple[bool, ...]:
    """Per-axis flags: did projection move ``requested`` to ``applied``?"""
    return tuple(
        abs(float(r) - float(a)) > atol for r, a in zip(requested, applied)
    )

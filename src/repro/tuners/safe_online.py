"""Safe online tuner: trust-region moves with constraint-aware acceptance.

The restart-free online tuners of arXiv:2309.01901 frame live
reconfiguration as *safe* exploration: a production stream cannot
afford probes that blow the SLO, so candidate configurations stay
inside a trust region around the proven incumbent, and a candidate is
only adopted when it is demonstrably safe.

Policy here:

* propose uniformly inside a per-axis trust region of radius
  ``radius · range`` around the incumbent (no restarts — every move is
  a bounded runtime reconfiguration);
* accept a candidate only when its measurement satisfied both the
  stability constraint (Eq. 2 with margin) *and* the delay SLO, and it
  improves the objective — or the incumbent itself is unsafe, in which
  case any safe candidate is an upgrade;
* on acceptance the region expands (exploration is being rewarded), on
  rejection it shrinks toward the incumbent (the frontier is close).

The asymmetric acceptance makes the tuner conservative exactly when the
paper's penalty-based methods are most aggressive: near the stability
frontier, where a wrong step costs queued batches for the rest of the
run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bounds import MinMaxScaler
from repro.core.pause import EvaluatedConfig

from .base import Tuner, clamp_objective, register_tuner


@register_tuner("safe-online")
class SafeOnlineTuner(Tuner):
    """No-restart trust-region search with SLO-aware acceptance.

    "Safe" means stable and within the run's delay SLO,
    :attr:`~repro.tuners.base.Tuner.slo_delay`.
    """

    #: Trust-region radius per axis, as a fraction of the axis range: its
    #: start, its growth on an acceptance and shrink on a rejection, and
    #: its bounds.
    INITIAL_RADIUS = 0.12
    EXPAND = 1.3
    SHRINK = 0.7
    MAX_RADIUS = 0.4
    MIN_RADIUS = 0.02

    def __init__(self, scaler: MinMaxScaler, seed: int = 0) -> None:
        super().__init__(scaler, seed)
        self.radius = self.INITIAL_RADIUS
        self.rng = np.random.default_rng(seed)
        self.incumbent: Optional[np.ndarray] = None
        self.incumbent_y = float("inf")
        self.incumbent_safe = False
        self.accepted = 0
        self.rejected = 0

    def _is_safe(self, evaluated: Optional[EvaluatedConfig]) -> bool:
        if evaluated is None:
            return False
        return bool(
            evaluated.stable
            and evaluated.end_to_end_delay <= self.slo_delay
        )

    def ask(self) -> np.ndarray:
        if self.incumbent is None:
            # First probe: the box center, the same neutral start every
            # other tuner gets.
            return self.box.center()
        offset = (
            self.rng.uniform(-1.0, 1.0, size=self.box.dim)
            * self.radius
            * self.box.ranges
        )
        return self.box.project(self.incumbent + offset)

    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        y = clamp_objective(objective)
        candidate = np.asarray(theta, dtype=float)
        safe = self._is_safe(evaluated)
        if self.incumbent is None:
            # The starting point is the incumbent by definition — there
            # is nothing proven to retreat to yet.
            self.incumbent = candidate
            self.incumbent_y = y
            self.incumbent_safe = safe
            return
        improves = y < self.incumbent_y
        accept = safe and (improves or not self.incumbent_safe)
        if accept:
            self.incumbent = candidate
            self.incumbent_y = y
            self.incumbent_safe = safe
            self.radius = min(self.MAX_RADIUS, self.radius * self.EXPAND)
            self.accepted += 1
        else:
            self.radius = max(self.MIN_RADIUS, self.radius * self.SHRINK)
            self.rejected += 1

    def checkpoint(self) -> dict:
        return {
            "incumbent": (
                [float(v) for v in self.incumbent]
                if self.incumbent is not None
                else None
            ),
            "incumbentY": float(self.incumbent_y),
            "incumbentSafe": bool(self.incumbent_safe),
            "radius": float(self.radius),
            "accepted": int(self.accepted),
            "rejected": int(self.rejected),
            "rngState": self.rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        incumbent = state["incumbent"]
        self.incumbent = (
            np.asarray(incumbent, dtype=float)
            if incumbent is not None
            else None
        )
        self.incumbent_y = float(state["incumbentY"])
        self.incumbent_safe = bool(state["incumbentSafe"])
        self.radius = float(state["radius"])
        self.accepted = int(state["accepted"])
        self.rejected = int(state["rejected"])
        self.rng.bit_generator.state = state["rngState"]

"""Tabular reinforcement-learning tuner.

Models streaming reconfiguration as a small MDP, after the
Spark-Streaming RL tuners of arXiv:1809.05495 ("a reinforcement
learning approach to dynamically adapt the batch interval"): the agent
observes *discretized telemetry* rather than raw θ, acts by *nudging θ
one axis at a time*, and learns one-step Q-values online from the
penalized objective.

* **State** — ``(load bin, delay bin)``: the processing-time /
  batch-interval ratio binned at the stability-relevant break points
  (0.5, 0.8, 1.0 — comfortably stable, near the frontier, unstable) ×
  end-to-end delay in 10 s bins capped at 5.  Coarse on purpose:
  a tournament budget of tens of evaluations must revisit states for
  tabular learning to converge at all.
* **Actions** — per-axis ±step (a fixed fraction of the scaled range)
  plus no-op: ``2·dim + 1`` arms.
* **Reward** — the negated penalized objective, so the greedy policy
  descends G(θ) while the ε schedule keeps early exploration alive.

Everything is seeded and the Q-table serializes to plain JSON, so a
restored tuner replays the identical ε-greedy trajectory.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.bounds import MinMaxScaler
from repro.core.pause import EvaluatedConfig

from .base import Tuner, clamp_objective, register_tuner

#: Load-ratio bin edges: stable / near-frontier / frontier / unstable.
LOAD_BINS = (0.5, 0.8, 1.0)
#: End-to-end delay bin width (seconds) and cap.
DELAY_BIN_SECONDS = 10.0
DELAY_BIN_MAX = 5


def telemetry_state(evaluated: EvaluatedConfig) -> str:
    """Discretize one evaluation into a Q-table state key."""
    interval = evaluated.batch_interval
    if interval > 0:
        load = evaluated.mean_processing_time / interval
    else:
        load = 0.0
    load_bin = sum(1 for edge in LOAD_BINS if load >= edge)
    delay_bin = min(
        DELAY_BIN_MAX, int(max(0.0, evaluated.end_to_end_delay)
                           // DELAY_BIN_SECONDS)
    )
    return f"{load_bin},{delay_bin}"


@register_tuner("rl")
class RLTuner(Tuner):
    """ε-greedy tabular Q-learning over θ deltas."""

    #: State before the first observation (no telemetry yet).
    INITIAL_STATE = "0,0"
    #: One action's step along its axis, as a fraction of the axis range.
    STEP_FRACTION = 0.15
    #: Q-learning rate α.
    LEARNING_RATE = 0.4
    #: Discount γ on the next state's value.
    DISCOUNT = 0.8
    #: Exploration ε before the first observation, its decay per
    #: observation, and its floor.
    EPSILON = 0.9
    EPSILON_DECAY = 0.9
    EPSILON_MIN = 0.05

    def __init__(self, scaler: MinMaxScaler, seed: int = 0) -> None:
        super().__init__(scaler, seed)
        self.rng = np.random.default_rng(seed)
        self.n_actions = 2 * self.box.dim + 1
        self.theta = self.box.center()
        self.state = self.INITIAL_STATE
        self.steps = 0
        self.q: Dict[str, List[float]] = {}
        self._pending_action: Optional[int] = None

    # -- MDP pieces -----------------------------------------------------

    def _q_row(self, key: str) -> List[float]:
        return self.q.setdefault(key, [0.0] * self.n_actions)

    def _action_delta(self, action: int) -> np.ndarray:
        """Action 0 is no-op; 1..2·dim are per-axis +step / −step."""
        delta = np.zeros(self.box.dim)
        if action == 0:
            return delta
        axis, negative = divmod(action - 1, 2)
        sign = -1.0 if negative else 1.0
        delta[axis] = sign * self.STEP_FRACTION * self.box.ranges[axis]
        return delta

    def _current_epsilon(self) -> float:
        return max(
            self.EPSILON_MIN,
            self.EPSILON * self.EPSILON_DECAY ** self.steps,
        )

    # -- Tuner protocol -------------------------------------------------

    def ask(self) -> np.ndarray:
        row = self._q_row(self.state)
        if self.rng.random() < self._current_epsilon():
            action = int(self.rng.integers(self.n_actions))
        else:
            # Deterministic argmax: lowest action index wins ties.
            action = int(np.argmax(row))
        self._pending_action = action
        return self.box.project(self.theta + self._action_delta(action))

    def observe(
        self,
        theta: np.ndarray,
        objective: float,
        evaluated: Optional[EvaluatedConfig] = None,
    ) -> None:
        if self._pending_action is None:
            raise RuntimeError("observe() without a pending ask()")
        reward = -clamp_objective(objective)
        next_state = (
            telemetry_state(evaluated)
            if evaluated is not None
            else self.state
        )
        row = self._q_row(self.state)
        action = self._pending_action
        target = reward + self.DISCOUNT * max(self._q_row(next_state))
        row[action] += self.LEARNING_RATE * (target - row[action])
        self.state = next_state
        self.theta = np.asarray(theta, dtype=float)
        self.steps += 1
        self._pending_action = None

    def checkpoint(self) -> dict:
        return {
            "theta": [float(v) for v in self.theta],
            "state": self.state,
            "steps": int(self.steps),
            "q": {k: [float(v) for v in row] for k, row in self.q.items()},
            "pendingAction": self._pending_action,
            "rngState": self.rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        self.theta = np.asarray(state["theta"], dtype=float)
        self.state = str(state["state"])
        self.steps = int(state["steps"])
        self.q = {
            str(k): [float(v) for v in row]
            for k, row in state["q"].items()
        }
        pending = state.get("pendingAction")
        self._pending_action = int(pending) if pending is not None else None
        self.rng.bit_generator.state = state["rngState"]

"""Impeded-progress pause rule (§5.3.5).

"Once NoStop reaches the optimal configuration, it halts the optimization
process until the system becomes unstable. ... if the standard deviation
of the end-to-end delay resulted from N best configurations is smaller
than a threshold S, we pause the optimization process."

The rule keeps every evaluated (configuration, delay) pair, ranks them,
and fires when the N best configurations' delays have converged to
within S.

Two reproduction-motivated details (documented in DESIGN.md):

* Ranking places configurations that *satisfied the stability
  constraint* (Eq. 2, ``interval >= processing time``) ahead of ones
  that violated it — Eq. 3 is only the SPSA-friendly relaxation of the
  hard SSPO constraint, and "the optimal configuration" NoStop parks at
  must actually be feasible.
* The "end-to-end delay resulted from" a configuration is its
  steady-state estimate (``interval/2 + processing time``): in a system
  carrying queue backlog from earlier probes, the raw measured delay
  reflects history, not the probed configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from .adjust import AdjustFunction

#: Headroom required of a configuration before it ranks as feasible.
#: θ* is "not a single point but an acceptable area" (§4.2.4); ranking a
#: configuration as stable only when its measured mean leaves ~8% slack
#: keeps the parked optimum off the exact frontier, where per-batch noise
#: (and ML iteration variance) would violate Eq. 2 on every other batch.
STABILITY_MARGIN = 0.08


def steady_state_delay(batch_interval: float, processing_time: float) -> float:
    """Expected record delay of a configuration in isolation.

    A record waits half an interval for its batch to close (uniform
    arrivals), then the batch is processed; an unstable configuration
    additionally queues by its per-batch deficit.
    """
    if batch_interval <= 0:
        raise ValueError("batch_interval must be positive")
    if processing_time < 0:
        raise ValueError("processing_time must be >= 0")
    return batch_interval / 2.0 + processing_time


@dataclass(frozen=True)
class EvaluatedConfig:
    """One live evaluation of a configuration."""

    theta: Tuple[float, ...]
    objective: float
    end_to_end_delay: float
    iteration: int
    batch_interval: float = 0.0
    num_executors: int = 0
    mean_processing_time: float = 0.0
    stable: bool = True

    @property
    def sort_key(self) -> Tuple[bool, float, Tuple[float, ...]]:
        """Feasible (stable) configurations first, then by objective.

        Exact objective ties break lexicographically on θ, never on
        insertion order: leaderboards and ``best_config`` stay
        deterministic regardless of the order evaluations arrived in
        (seed-order independence).
        """
        return (not self.stable, self.objective, self.theta)


class PauseRule:
    """Pause when the N best configurations' delays agree within S.

    Paper settings (§6.2.1): N = 10 consecutive optimization rounds,
    S = 1 (second).
    """

    def __init__(self, n_best: int = 10, std_threshold: float = 1.0) -> None:
        if n_best < 2:
            raise ValueError(f"n_best must be >= 2, got {n_best}")
        if std_threshold <= 0:
            raise ValueError(
                f"std_threshold must be positive, got {std_threshold}"
            )
        self.n_best = n_best
        self.std_threshold = std_threshold
        self._history: List[EvaluatedConfig] = []

    def record(self, evaluated: EvaluatedConfig) -> None:
        self._history.append(evaluated)

    @property
    def evaluations(self) -> int:
        return len(self._history)

    def measurement_count(self, theta: Tuple[float, ...]) -> int:
        """How many times a specific configuration has been measured."""
        return sum(1 for e in self._history if e.theta == tuple(theta))

    def _grouped(self) -> List[EvaluatedConfig]:
        """One aggregated record per distinct configuration.

        A single lucky measurement window must not crown a configuration
        forever (winner's curse over dozens of noisy evaluations):
        repeated measurements of the same θ — from revisited probes,
        paused-state monitoring, or the end-of-run confirmation pass —
        are averaged, and stability is re-judged on the averaged
        processing time.
        """
        groups: Dict[Tuple[float, ...], List[EvaluatedConfig]] = {}
        for e in self._history:
            groups.setdefault(e.theta, []).append(e)
        merged: List[EvaluatedConfig] = []
        for theta, evals in groups.items():
            if len(evals) == 1:
                merged.append(evals[0])
                continue
            proc = float(np.mean([e.mean_processing_time for e in evals]))
            interval = evals[-1].batch_interval
            if interval > 0:
                stable = proc <= interval * (1.0 - STABILITY_MARGIN)
            else:  # hand-built records without config details
                stable = sum(e.stable for e in evals) * 2 > len(evals)
            merged.append(
                EvaluatedConfig(
                    theta=theta,
                    objective=float(np.mean([e.objective for e in evals])),
                    end_to_end_delay=float(
                        np.mean([e.end_to_end_delay for e in evals])
                    ),
                    iteration=max(e.iteration for e in evals),
                    batch_interval=interval,
                    num_executors=evals[-1].num_executors,
                    mean_processing_time=proc,
                    stable=stable,
                )
            )
        return merged

    def best(self, n: Optional[int] = None) -> List[EvaluatedConfig]:
        """The ``n`` best configurations (stable first, default ``n_best``).

        Configurations measured multiple times enter as one averaged
        record each.
        """
        n = self.n_best if n is None else n
        return sorted(self._grouped(), key=lambda e: e.sort_key)[:n]

    def best_config(self) -> EvaluatedConfig:
        if not self._history:
            raise RuntimeError("no evaluations recorded yet")
        return min(self._grouped(), key=lambda e: e.sort_key)

    def should_pause(self) -> bool:
        """The ``satisfyPauseCondition`` of Table 1.

        The gate counts *distinct grouped* configurations, not raw
        history entries: ``best()`` dedups by θ, so ten repeated
        measurements of two configs would otherwise pass a raw-length
        gate and take the std over just two delays — pausing far too
        early on a sample the rule was never meant to accept.
        """
        grouped = self._grouped()
        if len(grouped) < self.n_best:
            return False
        ranked = sorted(grouped, key=lambda e: e.sort_key)[: self.n_best]
        delays = np.array([e.end_to_end_delay for e in ranked])
        return bool(np.std(delays) < self.std_threshold)

    def reset(self) -> None:
        """Clear history (used by ``resetCoefficient``, §5.5)."""
        self._history.clear()

    def checkpoint(self) -> list:
        """JSON-safe snapshot of the full evaluation history."""
        return [
            {
                "theta": [float(v) for v in e.theta],
                "objective": float(e.objective),
                "endToEndDelay": float(e.end_to_end_delay),
                "iteration": int(e.iteration),
                "batchInterval": float(e.batch_interval),
                "numExecutors": int(e.num_executors),
                "meanProcessingTime": float(e.mean_processing_time),
                "stable": bool(e.stable),
            }
            for e in self._history
        ]

    def restore(self, state: list) -> None:
        """Resume from a :meth:`checkpoint` snapshot."""
        self._history = [
            EvaluatedConfig(
                theta=tuple(float(v) for v in d["theta"]),
                objective=float(d["objective"]),
                end_to_end_delay=float(d["endToEndDelay"]),
                iteration=int(d["iteration"]),
                batch_interval=float(d["batchInterval"]),
                num_executors=int(d["numExecutors"]),
                mean_processing_time=float(d["meanProcessingTime"]),
                stable=bool(d["stable"]),
            )
            for d in state
        ]


def confirm_best(
    rule: PauseRule,
    adjust: "AdjustFunction",
    rho_cap: float,
    iteration: int,
    max_confirmations: int = 4,
    skip_corrupted: bool = False,
) -> None:
    """Re-measure singleton winners before trusting them.

    With dozens of noisy two-to-three-batch probe windows, the
    minimum-objective configuration is biased toward lucky measurements
    (winner's curse).  Re-measuring the current best at the penalty cap
    until it has at least two windows — demoting it if the average no
    longer wins — makes the reported final configuration honest.  With
    ``skip_corrupted``, a probe a fault transient corrupted neither
    confirms nor demotes the incumbent.
    """
    if max_confirmations < 0:
        raise ValueError("max_confirmations must be >= 0")
    from .adjust import evaluate_config

    for _ in range(max_confirmations):
        if not rule.evaluations:
            return
        best = rule.best_config()
        if rule.measurement_count(best.theta) >= 2:
            return
        theta = np.asarray(best.theta, dtype=float)
        result = adjust(theta, rho_cap)
        if skip_corrupted and result.corrupted:
            continue
        rule.record(evaluate_config(result, theta, iteration, rho_cap=rho_cap))

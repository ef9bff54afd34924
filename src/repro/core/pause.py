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
from typing import Dict, List, Tuple

import numpy as np

from .metrics_collector import array_mean, array_std

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

    #: The paper's S: the delay spread (seconds) under which NoStop pauses.
    STD_THRESHOLD = 1.0

    def __init__(self, n_best: int = 10) -> None:
        if n_best < 2:
            raise ValueError(f"n_best must be >= 2, got {n_best}")
        self.n_best = n_best
        self._history: List[EvaluatedConfig] = []
        #: Each configuration's measurements, in history order.
        self._measurements: Dict[Tuple[float, ...], List[EvaluatedConfig]] = {}
        #: One aggregated record per configuration, in first-measured
        #: order; rebuilt when a measurement of that θ arrives.
        self._merged: Dict[Tuple[float, ...], EvaluatedConfig] = {}

    def record(self, evaluated: EvaluatedConfig) -> None:
        self._history.append(evaluated)
        self._merge(evaluated)

    def _merge(self, evaluated: EvaluatedConfig) -> None:
        """Fold one new measurement into its configuration's record.

        A single lucky measurement window must not crown a configuration
        forever (winner's curse over dozens of noisy evaluations):
        repeated measurements of the same θ — from revisited probes,
        paused-state monitoring, or the end-of-run confirmation pass —
        are averaged, and stability is re-judged on the averaged
        processing time.
        """
        evals = self._measurements.setdefault(evaluated.theta, [])
        evals.append(evaluated)
        if len(evals) == 1:
            self._merged[evaluated.theta] = evaluated
            return
        theta = evals[0].theta
        proc = array_mean(np.array([e.mean_processing_time for e in evals]))
        interval = evals[-1].batch_interval
        if interval > 0:
            stable = proc <= interval * (1.0 - STABILITY_MARGIN)
        else:  # hand-built records without config details
            stable = sum(e.stable for e in evals) * 2 > len(evals)
        self._merged[theta] = EvaluatedConfig(
            theta=theta,
            objective=array_mean(np.array([e.objective for e in evals])),
            end_to_end_delay=array_mean(
                np.array([e.end_to_end_delay for e in evals])
            ),
            iteration=max(e.iteration for e in evals),
            batch_interval=interval,
            num_executors=evals[-1].num_executors,
            mean_processing_time=proc,
            stable=stable,
        )

    @property
    def evaluations(self) -> int:
        return len(self._history)

    def measurement_count(self, theta: Tuple[float, ...]) -> int:
        """How many times a specific configuration has been measured."""
        return len(self._measurements.get(tuple(theta), ()))

    def _grouped(self) -> List[EvaluatedConfig]:
        """One aggregated record per distinct configuration."""
        return list(self._merged.values())

    def best(self) -> List[EvaluatedConfig]:
        """The ``n_best`` best configurations (stable first).

        Configurations measured multiple times enter as one averaged
        record each.
        """
        return sorted(self._grouped(), key=lambda e: e.sort_key)[: self.n_best]

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
        if len(self._merged) < self.n_best:
            return False
        delays = np.array([e.end_to_end_delay for e in self.best()])
        return array_std(delays, array_mean(delays)) < self.STD_THRESHOLD

    def reset(self) -> None:
        """Clear history (used by ``resetCoefficient``, §5.5)."""
        self._history.clear()
        self._measurements.clear()
        self._merged.clear()

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
        self.reset()
        for d in state:
            self.record(
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
            )


"""Multi-window burn-rate alerting over the batch stream.

The classic SRE construction, transplanted to simulated time: an SLO
with target ``t`` (fraction of good batches) has an error budget
``1 - t``; the *burn rate* over a window is the observed bad fraction
divided by that budget.  A burn rate of 1 consumes the budget exactly at
the sustainable pace; 10 means ten times too fast.

Alerts require **two** windows to agree — a fast window (default 60
simulated seconds) so firing is prompt, and a slow window (default 600 s)
so a single straggler batch cannot page.  The alert resolves when the
fast window drops back under the threshold, and the alerter keeps a
deterministic, append-only log of every firing with the burn rates that
justified it.

Good/bad classification is pluggable per policy: stability (the paper's
``processing_time <= interval``) and delay-ceiling classifiers are
built in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.streaming.metrics import BatchInfo

BatchClassifier = Callable[[BatchInfo], bool]
"""Returns True when the batch counts *against* the SLO (a "bad" batch)."""


def unstable_batch(info: BatchInfo) -> bool:
    """Bad = the paper's stability condition was violated."""
    return not info.stable


def delay_above(ceiling: float) -> BatchClassifier:
    """Bad = end-to-end delay exceeded ``ceiling`` seconds."""
    if ceiling <= 0:
        raise ValueError(f"ceiling must be positive, got {ceiling}")

    def classify(info: BatchInfo) -> bool:
        return info.end_to_end_delay > ceiling

    return classify


@dataclass(frozen=True)
class BurnRatePolicy:
    """One two-window burn-rate alerting rule."""

    name: str
    target: float
    """SLO target: fraction of batches that must be good (e.g. 0.9)."""
    classifier: BatchClassifier
    fast_window: float = 60.0
    slow_window: float = 600.0
    fast_burn: float = 6.0
    """Burn-rate threshold the fast window must exceed."""
    slow_burn: float = 3.0
    """Burn-rate threshold the slow window must exceed."""
    severity: str = "page"

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if self.fast_window <= 0 or self.slow_window <= 0:
            raise ValueError("windows must be positive")
        if self.fast_window > self.slow_window:
            raise ValueError(
                f"fast window ({self.fast_window}s) must not exceed slow "
                f"window ({self.slow_window}s)"
            )
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ValueError("burn thresholds must be positive")

    @property
    def budget(self) -> float:
        return 1.0 - self.target


def default_policies() -> List[BurnRatePolicy]:
    """Stock alerting rules: stability burn, and delay-ceiling burn at
    60 s (six of the paper's default 10 s batch intervals)."""
    return [
        BurnRatePolicy(
            name="stability-burn",
            target=0.90,
            classifier=unstable_batch,
            severity="page",
        ),
        BurnRatePolicy(
            name="delay-burn",
            target=0.90,
            classifier=delay_above(60.0),
            severity="ticket",
        ),
    ]


@dataclass
class Alert:
    """One firing of a burn-rate policy (append-only log entry)."""

    policy: str
    severity: str
    fired_at: float
    fast_burn: float
    slow_burn: float
    resolved_at: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.resolved_at is None

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "severity": self.severity,
            "firedAt": self.fired_at,
            "fastBurn": self.fast_burn,
            "slowBurn": self.slow_burn,
            "resolvedAt": self.resolved_at,
        }


class _Window:
    """The batches of the trailing ``span`` seconds, with a running count
    of the bad ones (updated on append and on eviction)."""

    __slots__ = ("span", "samples", "bad")

    def __init__(self, span: float) -> None:
        self.span = span
        #: (completion time, bad) samples, oldest first
        self.samples: Deque[Tuple[float, bool]] = deque()
        self.bad = 0

    def push(self, now: float, is_bad: bool) -> float:
        """Add one batch, evict expired ones; returns the bad fraction."""
        samples = self.samples
        samples.append((now, is_bad))
        self.bad += is_bad
        cutoff = now - self.span
        while samples[0][0] < cutoff:
            self.bad -= samples.popleft()[1]
        return self.bad / len(samples)


class BurnRateAlerter:
    """Evaluates burn-rate policies incrementally over batch completions.

    One alerter carries any number of policies; each keeps independent
    per-window sample deques keyed by batch completion time, with running
    bad counts so a batch costs O(1) amortised per window.  At most one
    alert per policy is active at a time — re-crossings while active
    update nothing, so the log stays a clean fired/resolved history.
    """

    def __init__(self, policies: Optional[List[BurnRatePolicy]] = None) -> None:
        self.policies: List[BurnRatePolicy] = (
            list(policies) if policies is not None else default_policies()
        )
        names = [p.name for p in self.policies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate policy names: {names}")
        #: policy name -> (fast window, slow window)
        self._windows: Dict[str, Tuple[_Window, _Window]] = {
            p.name: (_Window(p.fast_window), _Window(p.slow_window))
            for p in self.policies
        }
        self._active: Dict[str, Alert] = {}
        self.log: List[Alert] = []

    def observe_batch(self, info: BatchInfo) -> List[Alert]:
        """Fold one batch in; returns alerts newly fired by this batch."""
        now = info.processing_end
        fired: List[Alert] = []
        for policy in self.policies:
            fast, slow = self._windows[policy.name]
            is_bad = bool(policy.classifier(info))
            fast_burn = fast.push(now, is_bad) / policy.budget
            slow_burn = slow.push(now, is_bad) / policy.budget

            active = self._active.get(policy.name)
            if active is None:
                if fast_burn >= policy.fast_burn and slow_burn >= policy.slow_burn:
                    alert = Alert(
                        policy=policy.name,
                        severity=policy.severity,
                        fired_at=now,
                        fast_burn=fast_burn,
                        slow_burn=slow_burn,
                    )
                    self._active[policy.name] = alert
                    self.log.append(alert)
                    fired.append(alert)
            elif fast_burn < policy.fast_burn:
                active.resolved_at = now
                del self._active[policy.name]
        return fired

    def finish(self, now: float) -> None:
        """Resolve every still-active alert at end of run."""
        for alert in list(self._active.values()):
            alert.resolved_at = now
        self._active.clear()

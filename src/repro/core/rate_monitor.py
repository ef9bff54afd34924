"""Input-rate change detection (§5.5).

"We set a threshold for input data speed variation threshold_speed.  If
the standard deviation of the recent input data speed is greater than
this threshold, it triggers NoStop to reset the coefficients and restart
the optimization process."

The monitor keeps a sliding window of observed per-batch input rates;
:meth:`RateMonitor.need_reset` is Table 1's ``needResetCoefficient()``.
The threshold is naturally expressed *relative* to the mean rate (a 10k
records/s swing is a surge for logistic regression but noise for Page
Analyze), with an absolute mode for ablation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

import numpy as np


class RateMonitor:
    """Sliding-window standard-deviation trigger on input rates."""

    def __init__(
        self,
        threshold: float = 0.25,
        window: int = 12,
        relative: bool = True,
        min_samples: int = 4,
        cooldown: int = 0,
    ) -> None:
        """``cooldown`` is the reset hysteresis: after a triggered reset,
        that many further observations are ignored by :meth:`need_reset`
        before it can fire again.  Without it, a single post-fault rate
        spike sitting in the refilled window re-triggers a coefficient
        reset on every subsequent round — a reset storm that keeps SPSA
        permanently at iteration zero while the pipeline is trying to
        recover."""
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if not (2 <= min_samples <= window):
            raise ValueError("need 2 <= min_samples <= window")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.relative = relative
        self.min_samples = min_samples
        self.cooldown = cooldown
        self._cooldown_left = 0
        self._rates: Deque[float] = deque(maxlen=window)
        self.resets_triggered = 0

    def observe(self, rate: float) -> None:
        """Record one observed input rate (records/second)."""
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self._rates.append(rate)
        if self._cooldown_left > 0:
            self._cooldown_left -= 1

    def current_std(self) -> float:
        """Standard deviation of the recent input speed (possibly
        normalized by the mean when ``relative``)."""
        if len(self._rates) < 2:
            return 0.0
        arr = np.array(self._rates)
        std = float(np.std(arr))
        if self.relative:
            mean = float(np.mean(arr))
            return std / mean if mean > 0 else 0.0
        return std

    def need_reset(self) -> bool:
        """Table 1's ``needResetCoefficient()``."""
        if self._cooldown_left > 0:
            return False
        if len(self._rates) < self.min_samples:
            return False
        return self.current_std() > self.threshold

    def checkpoint(self) -> dict:
        """JSON-safe snapshot: window contents, hysteresis, reset count."""
        return {
            "rates": [float(r) for r in self._rates],
            "cooldownLeft": int(self._cooldown_left),
            "resetsTriggered": int(self.resets_triggered),
        }

    def restore(self, state: dict) -> None:
        """Resume from a :meth:`checkpoint` snapshot (same-config monitor)."""
        self._rates.clear()
        self._rates.extend(float(r) for r in state["rates"])
        self._cooldown_left = int(state["cooldownLeft"])
        self.resets_triggered = int(state["resetsTriggered"])

    def acknowledge_reset(self) -> None:
        """Clear the window after a reset so one surge fires one restart,
        and arm the cooldown so the next ``cooldown`` observations cannot
        immediately re-trigger."""
        self.resets_triggered += 1
        self._rates.clear()
        self._cooldown_left = self.cooldown

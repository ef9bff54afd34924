"""Online anomaly detection over batch telemetry.

Three detectors turn the raw telemetry streams of PR 2 into judgements:

* :class:`EwmaMadDetector` — an EWMA baseline with a median-absolute-
  deviation residual scale; flags end-to-end-delay spikes that stand out
  from the recent level without being fooled by a slowly drifting mean
  (mean/std would let one 400 s outlier inflate the scale and mask the
  next one — MAD has a 50% breakdown point);
* :class:`CusumDetector` — a two-sided standardized CUSUM for sustained
  *shifts* (input-rate steps, the §5.5 surge scenario), which a spike
  detector misses by design: each post-shift sample is individually
  unremarkable, only their sum drifts;
* :class:`SpsaWatchdog` — a convergence watchdog over the PR 2 audit
  trail: flags gradient-sign thrash (the estimate bouncing instead of
  descending) and projection-clip saturation (the optimizer pinned
  against the box, i.e. the configuration space is mis-sized).

All detectors are pure online state machines over caller-supplied
simulated timestamps: deterministic under a fixed seed, no wall clock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from .audit import AuditTrail

#: Scale factor making the MAD a consistent estimator of the standard
#: deviation under normality.
MAD_TO_SIGMA = 1.4826


@dataclass(frozen=True)
class AnomalyEvent:
    """One detector firing, stamped with the simulated time it fired."""

    kind: str
    """``"delay_spike"``, ``"rate_shift"``, ``"gradient_thrash"``, or
    ``"clip_saturation"``."""
    time: float
    value: float
    """The observation (or statistic) that crossed the threshold."""
    score: float
    """How far past the threshold, in the detector's own units."""
    threshold: float
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "time": self.time,
            "value": self.value,
            "score": self.score,
            "threshold": self.threshold,
            "detail": self.detail,
        }


def _median(values: List[float]) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


class EwmaMadDetector:
    """EWMA level + MAD residual scale → robust spike detection.

    Each observation is compared against the EWMA of *previous*
    observations; the residual is scored in robust sigmas
    (``MAD_TO_SIGMA * MAD`` of the recent residual window).  The EWMA is
    updated after scoring, so the spike itself only pollutes the
    baseline with weight ``alpha``, and the residual window keeps the
    spike from tightening future scales (MAD shrugs off outliers).
    """

    #: EWMA weight of each new observation.
    ALPHA = 0.3
    #: Robust sigmas a residual must exceed to fire.
    THRESHOLD = 5.0
    #: Residuals the MAD scale is taken over.
    WINDOW = 20
    #: Observations scored before the detector may fire.
    WARMUP = 5
    #: Floor of the residual scale.
    MIN_SCALE = 1e-3

    def __init__(self) -> None:
        self._ewma: Optional[float] = None
        self._residuals: Deque[float] = deque(maxlen=self.WINDOW)
        self._seen = 0
        self.events: List[AnomalyEvent] = []

    def scale(self) -> float:
        """Current robust residual scale (one 'sigma')."""
        if len(self._residuals) < 3:
            return self.MIN_SCALE
        res = list(self._residuals)
        med = _median(res)
        mad = _median([abs(r - med) for r in res])
        return max(MAD_TO_SIGMA * mad, self.MIN_SCALE)

    def observe(self, t: float, value: float) -> Optional[AnomalyEvent]:
        """Score one observation; returns the event if it fired."""
        self._seen += 1
        event = None
        if self._ewma is None:
            self._ewma = float(value)
            self._residuals.append(0.0)
            return None
        residual = float(value) - self._ewma
        sigma = self.scale()
        score = abs(residual) / sigma
        if self._seen > self.WARMUP and score > self.THRESHOLD:
            event = AnomalyEvent(
                kind="delay_spike",
                time=t,
                value=float(value),
                score=score,
                threshold=self.THRESHOLD,
                detail=(
                    f"residual {residual:+.3f} = {score:.1f} robust sigmas "
                    f"off EWMA {self._ewma:.3f}"
                ),
            )
            self.events.append(event)
        self._ewma += self.ALPHA * residual
        self._residuals.append(residual)
        return event


class CusumDetector:
    """Two-sided standardized CUSUM for sustained level shifts.

    The reference level and scale come from a **robust** fit (median and
    ``MAD_TO_SIGMA * MAD``) of recent quiescent samples, so a fault
    transient — a receiver-stall backlog bursting back as a handful of
    extreme rates — cannot poison the reference the way a mean/std fit
    would.  While either one-sided sum carries evidence the reference
    stays frozen (a genuine shift accumulates ``|z| - k`` per sample
    instead of being chased by an adapting baseline); whenever both
    sums are at zero the reference re-centers on the recent window, so
    the detector tracks settled regime changes it has already judged.
    Fires when either sum exceeds ``H``; on firing it resets and
    re-learns the post-shift level, so a second shift later in the run
    is detected against the *new* regime.
    """

    #: Allowance: standardized drift per sample that accumulates nothing.
    K = 0.5
    #: Decision interval: the one-sided sum at which a shift fires.  The
    #: per-batch arrival-rate signal is noisier than CUSUM's textbook
    #: setting assumes (held rate levels + catch-up batches after
    #: backlog), so it decides at 8 rather than the textbook 4: a genuine
    #: regime shift still fires within a couple of batches, transient
    #: excursions mostly don't.
    H = 8.0
    #: Samples fitted before the detector arms.
    WARMUP = 8
    #: Quiescent samples the reference is re-fitted over (>= ``WARMUP``).
    WINDOW = 12

    def __init__(self) -> None:
        self._recent: Deque[float] = deque(maxlen=self.WINDOW)
        self._armed = False
        self._mean = 0.0
        self._sigma = 0.0
        self._pos = 0.0
        self._neg = 0.0
        self.events: List[AnomalyEvent] = []

    def _refit(self) -> None:
        samples = list(self._recent)
        med = _median(samples)
        mad = _median([abs(v - med) for v in samples])
        self._mean = med
        # Floor the scale at 5% of the level: a perfectly flat window
        # must not make every later sample an infinite z-score.
        self._sigma = max(MAD_TO_SIGMA * mad, 0.05 * abs(med), 1e-9)

    def observe(self, t: float, value: float) -> Optional[AnomalyEvent]:
        """Feed one observation; returns the event if a shift fired."""
        value = float(value)
        if not self._armed:
            self._recent.append(value)
            if len(self._recent) >= self.WARMUP:
                self._refit()
                self._armed = True
            return None
        z = (value - self._mean) / self._sigma
        self._pos = max(0.0, self._pos + z - self.K)
        self._neg = max(0.0, self._neg - z - self.K)
        stat = max(self._pos, self._neg)
        if stat > self.H:
            direction = "up" if self._pos >= self._neg else "down"
            event = AnomalyEvent(
                kind="rate_shift",
                time=t,
                value=value,
                score=stat,
                threshold=self.H,
                detail=(
                    f"{direction}ward shift off reference "
                    f"{self._mean:.1f} (sigma {self._sigma:.1f})"
                ),
            )
            self.events.append(event)
            # Re-baseline on the post-shift regime.
            self._recent.clear()
            self._armed = False
            self._pos = self._neg = 0.0
            return event
        if self._pos == 0.0 and self._neg == 0.0:
            # Quiescent: no accumulated evidence of drift — fold the
            # sample into the reference window and re-center, so the
            # frozen level tracks slow, already-judged regime changes.
            self._recent.append(value)
            self._refit()
        return None


@dataclass
class WatchdogReport:
    """What the SPSA convergence watchdog found in an audit trail."""

    events: List[AnomalyEvent] = field(default_factory=list)
    rounds_scanned: int = 0
    sign_flip_fraction: float = 0.0
    step_clip_fraction: float = 0.0
    probe_clip_fraction: float = 0.0


class SpsaWatchdog:
    """Convergence watchdog over the SPSA decision audit trail.

    * **Gradient-sign thrash** — over a sliding window of non-guarded
      decisions, the per-axis fraction of consecutive gradient sign
      flips; sustained values near 1.0 mean the estimate is oscillating
      across the optimum (or the gains are too hot), not descending.
    * **Projection-clip saturation** — the fraction of recent rounds
      whose *step* was clipped by the box projection; saturation means
      SPSA keeps trying to leave the configuration space, i.e. the
      optimum likely sits on (or beyond) the boundary.

    The watchdog reads a recorded :class:`~repro.obs.audit.AuditTrail`;
    it performs no arithmetic of its own beyond counting, so a trail that
    replays cleanly is judged exactly as the optimizer behaved.
    """

    #: Recent non-guarded decisions judged.
    WINDOW = 8
    #: Sign-flip fraction that counts as thrash.
    THRASH_THRESHOLD = 0.75
    #: Step-clip fraction that counts as saturation.
    CLIP_THRESHOLD = 0.75

    def scan(self, trail: AuditTrail) -> WatchdogReport:
        """Judge one recorded trail; at most one event per failure mode."""
        report = WatchdogReport()
        decisions = [d for d in trail.decisions if not d.guarded]
        report.rounds_scanned = len(decisions)
        if len(decisions) < self.WINDOW:
            return report

        recent = decisions[-self.WINDOW:]

        # Gradient-sign thrash: fraction of consecutive pairs flipping
        # sign, worst axis wins.
        axes = len(recent[0].gradient or ())
        worst_frac, worst_axis = 0.0, 0
        for ax in range(axes):
            flips = pairs = 0
            for prev, cur in zip(recent, recent[1:]):
                g0 = (prev.gradient or ())[ax]
                g1 = (cur.gradient or ())[ax]
                if g0 == 0.0 or g1 == 0.0:
                    continue
                pairs += 1
                if (g0 > 0) != (g1 > 0):
                    flips += 1
            frac = flips / pairs if pairs else 0.0
            if frac > worst_frac:
                worst_frac, worst_axis = frac, ax
        report.sign_flip_fraction = worst_frac
        if worst_frac >= self.THRASH_THRESHOLD:
            report.events.append(AnomalyEvent(
                kind="gradient_thrash",
                time=recent[-1].sim_time,
                value=worst_frac,
                score=worst_frac,
                threshold=self.THRASH_THRESHOLD,
                detail=(
                    f"axis {worst_axis}: gradient sign flipped in "
                    f"{worst_frac:.0%} of the last {self.WINDOW} rounds"
                ),
            ))

        # Projection-clip saturation, steps and probes separately
        # accounted (probe clips are informational context in the detail).
        step_clipped = sum(1 for d in recent if any(d.step_clipped))
        probe_clipped = sum(1 for d in recent if any(d.probe_clipped))
        report.step_clip_fraction = step_clipped / len(recent)
        report.probe_clip_fraction = probe_clipped / len(recent)
        if report.step_clip_fraction >= self.CLIP_THRESHOLD:
            report.events.append(AnomalyEvent(
                kind="clip_saturation",
                time=recent[-1].sim_time,
                value=report.step_clip_fraction,
                score=report.step_clip_fraction,
                threshold=self.CLIP_THRESHOLD,
                detail=(
                    f"box projection clipped the SPSA step in "
                    f"{step_clipped}/{len(recent)} recent rounds "
                    f"(probes clipped in {probe_clipped})"
                ),
            ))
        return report

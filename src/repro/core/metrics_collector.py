"""Metric-collection protocol (§5.4), hardened against fault transients.

Two rules govern how NoStop turns raw batch reports into one measurement:

1. "The first processed batch after changing configurations is not
   considered" — reconfiguration triggers jar shipping and executor
   initialization, inflating that batch's processing time.
2. "System metrics are collected for a certain number of batches, and
   the average processing time is calculated" — with an
   *additive-increase* window while the system sits at an optimum (one
   extra batch per newly completed batch, up to a cap), so a temporary
   wobble does not needlessly restart optimization, while a real change
   is still noticed within the capped window.

Two chaos-era extensions (both off by default, enabled by the hardened
controller):

3. **MAD outlier rejection** — an executor crash or straggler mid-window
   produces one wildly inflated batch among otherwise clean ones.  With
   ``mad_threshold`` set, batches whose modified z-score (0.6745·(x−med)
   / MAD over processing times) exceeds the threshold are dropped and
   the window refills ``MAX_RETRIES`` (one) time; if corruption persists, the
   measurement is summarized anyway but flagged *tainted* so the
   optimizer can refuse to differentiate through it.  Rejection is
   one-sided: only abnormally *slow* batches are outliers — faults
   inflate processing time, and discarding fast batches would bias the
   objective optimistically.

4. **Degraded mode** — while the chaos engine reports active faults the
   effective window widens by ``DEGRADED_EXTRA`` (3) batches, trading
   measurement latency for variance exactly when variance spikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.streaming.metrics import BatchInfo


def array_mean(values: np.ndarray) -> float:
    """``float(np.mean(values))`` of a non-empty 1-D array, bit for bit.

    ``np.mean`` is one pairwise ``np.add.reduce`` (integers summed as
    float64) divided by the count; calling the reduction directly skips
    ``np.mean``'s per-call dispatch, most of its cost on a short window.
    """
    return float(np.add.reduce(values, dtype=np.float64)) / values.shape[0]


def array_std(values: np.ndarray, mean: float) -> float:
    """``float(np.std(values))`` of a 1-D float array whose
    :func:`array_mean` is ``mean``, bit for bit.

    ``np.std`` subtracts that same mean, squares, reduces, divides by the
    count and takes the (correctly rounded) square root.
    """
    deviation = values - mean
    return math.sqrt(
        float(np.add.reduce(deviation * deviation)) / values.shape[0]
    )


@dataclass(frozen=True)
class Measurement:
    """Aggregate over one measurement window of batches."""

    mean_processing_time: float
    mean_end_to_end_delay: float
    mean_scheduling_delay: float
    mean_records: float
    batches_used: int
    skipped: int
    std_processing_time: float = 0.0
    outliers_rejected: int = 0
    """Batches this window dropped as fault-corrupted (MAD rejection)."""
    tainted: bool = False
    """True when the rejection budget ran out and suspect batches remain
    in the average — the optimizer should not trust this gradient."""

    def __post_init__(self) -> None:
        if self.batches_used < 1:
            raise ValueError("a measurement needs at least one batch")


class MetricsCollector:
    """Build :class:`Measurement` objects from listener batch reports."""

    #: Window refills allowed per measurement after outliers are dropped.
    MAX_RETRIES = 1
    #: Extra batches per window while faults are active (degraded mode).
    DEGRADED_EXTRA = 3

    def __init__(
        self,
        window: int = 3,
        max_window: int = 12,
        mad_threshold: Optional[float] = None,
        reject_outliers: bool = True,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if max_window < window:
            raise ValueError(
                f"max_window ({max_window}) must be >= window ({window})"
            )
        if mad_threshold is not None and mad_threshold <= 0:
            raise ValueError(
                f"mad_threshold must be positive, got {mad_threshold}"
            )
        self.base_window = window
        self.max_window = max_window
        self.mad_threshold = mad_threshold
        #: When False, outliers are *detected* (the measurement is
        #: flagged tainted) but kept in the average — detection-only
        #: mode, used by the unhardened ablation arm so poisoned steps
        #: can be counted without changing the paper's measurements.
        self.reject_outliers = reject_outliers
        self._window = window
        self._degraded = False
        self._buffer: List[BatchInfo] = []
        self._retries_used = 0
        self._window_rejected = 0
        self.total_skipped = 0
        #: cumulative fault-corrupted batches dropped across all windows
        self.outliers_rejected = 0
        #: whether the most recent measurement was flagged tainted
        self.last_tainted = False

    # -- window management (additive increase, §5.4) -----------------------

    @property
    def window(self) -> int:
        """Current number of batches required per measurement.

        Includes the degraded-mode widening: while faults are active the
        window grows by ``DEGRADED_EXTRA`` so one transient cannot
        dominate the average.
        """
        w = self._window
        if self._degraded:
            w += self.DEGRADED_EXTRA
        return w

    def set_degraded(self, active: bool) -> None:
        """Enter/leave degraded mode (faults active on the substrate).

        Leaving degraded mode flushes the in-progress window: batches
        buffered under the widened window were collected while faults
        were active, and the window shrinks back the moment the flag
        clears — without the flush the very next ``offer`` would
        summarize an oversized window that mixes degraded-era batches
        into the clean measurement.
        """
        active = bool(active)
        if self._degraded and not active and self._buffer:
            self._buffer.clear()
        self._degraded = active

    def relax_window(self) -> int:
        """Additive increase: one more batch per completed batch at the
        optimum, capped at ``max_window``."""
        self._window = min(self._window + 1, self.max_window)
        return self._window

    def reset_window(self) -> None:
        """Shrink back to the base window (on reset / instability)."""
        self._window = self.base_window
        self._buffer.clear()

    def checkpoint(self) -> dict:
        """JSON-safe snapshot of the resumable window state.

        The in-progress batch buffer is deliberately *not* serialized:
        every probe begins with :meth:`start_measurement`, which clears
        it, so dropping it loses nothing — while ``total_skipped`` must
        survive because every future :class:`Measurement` echoes it.
        """
        return {
            "window": int(self._window),
            "degraded": bool(self._degraded),
            "totalSkipped": int(self.total_skipped),
            "outliersRejected": int(self.outliers_rejected),
            "lastTainted": bool(self.last_tainted),
        }

    def restore(self, state: dict) -> None:
        """Resume from a :meth:`checkpoint` snapshot."""
        self._window = int(state["window"])
        self._degraded = bool(state["degraded"])
        self.total_skipped = int(state["totalSkipped"])
        self.outliers_rejected = int(state["outliersRejected"])
        self.last_tainted = bool(state["lastTainted"])
        self._buffer.clear()
        self._retries_used = 0
        self._window_rejected = 0

    def start_measurement(self) -> None:
        """Discard buffered batches from a previous configuration.

        A measurement window must cover exactly one configuration;
        without this, a window left half-full by one probe would blend
        into the next probe's average.  Also resets the per-measurement
        outlier-retry budget and taint flag.
        """
        self._buffer.clear()
        self._retries_used = 0
        self._window_rejected = 0
        self.last_tainted = False

    # -- outlier rejection (chaos hardening) --------------------------------

    def _split_outliers(
        self, batches: List[BatchInfo]
    ) -> Tuple[List[BatchInfo], List[BatchInfo]]:
        """Partition the window into (clean, corrupted) by modified z-score."""
        proc = np.array([b.processing_time for b in batches])
        med = float(np.median(proc))
        mad = float(np.median(np.abs(proc - med)))
        if mad < 1e-9:
            # Degenerate spread (near-identical batches): only a gross
            # inflation — several times the median — counts as corrupted.
            cut = 3.0 * med + 1.0
            mask = proc > cut
        else:
            z = 0.6745 * (proc - med) / mad
            mask = z > self.mad_threshold
        clean = [b for b, bad in zip(batches, mask) if not bad]
        corrupt = [b for b, bad in zip(batches, mask) if bad]
        return clean, corrupt

    # -- ingestion ----------------------------------------------------------

    def offer(self, info: BatchInfo) -> Optional[Measurement]:
        """Feed one completed batch; returns a measurement when the
        window fills, else None.

        With MAD rejection enabled, a filled window containing corrupted
        batches is purged and refilled (up to ``MAX_RETRIES`` times per
        measurement) before being summarized.
        """
        if info.first_after_reconfig:
            self.total_skipped += 1
            return None
        self._buffer.append(info)
        if len(self._buffer) < self.window:
            return None
        if self.mad_threshold is not None:
            clean, corrupt = self._split_outliers(self._buffer)
            if (
                corrupt
                and self.reject_outliers
                and self._retries_used < self.MAX_RETRIES
                and clean
            ):
                self._retries_used += 1
                self.outliers_rejected += len(corrupt)
                self._window_rejected += len(corrupt)
                self._buffer = clean
                return None  # keep collecting replacements
            if corrupt:
                self.last_tainted = True
        measurement = self.summarize(self._buffer)
        self._buffer.clear()
        return measurement

    @property
    def pending(self) -> int:
        """Batches buffered toward the next measurement."""
        return len(self._buffer)

    def summarize(self, batches: List[BatchInfo]) -> Measurement:
        """Aggregate a list of batches into one measurement."""
        if not batches:
            raise ValueError("cannot summarize zero batches")
        proc = np.array([b.processing_time for b in batches])
        mean_proc = array_mean(proc)
        return Measurement(
            mean_processing_time=mean_proc,
            mean_end_to_end_delay=array_mean(
                np.array([b.end_to_end_delay for b in batches])
            ),
            mean_scheduling_delay=array_mean(
                np.array([b.scheduling_delay for b in batches])
            ),
            mean_records=array_mean(np.array([b.records for b in batches])),
            batches_used=len(batches),
            skipped=self.total_skipped,
            std_processing_time=array_std(proc, mean_proc),
            outliers_rejected=self._window_rejected,
            tainted=self.last_tainted,
        )

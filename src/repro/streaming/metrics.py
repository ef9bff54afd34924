"""Streaming batch metrics.

Definitions follow the paper exactly:

* **batch interval** — wall time between consecutive batch closes (the
  tunable parameter);
* **batch processing time** — engine time from job start to last task
  completion;
* **batch schedule delay** — "the time duration a batch must wait before
  it starts to be processed" (§3.2): zero when the engine is idle at the
  batch boundary, positive when earlier batches are still running;
* **end-to-end delay** — "the duration from the time when the system
  receives a data entry to the time when a corresponding output is
  produced" (§1), averaged over the records in a batch.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def percentile_sorted(s: Sequence[float], q: float) -> float:
    """Exact ``q``-quantile of an *already sorted* sample.

    The workhorse behind :func:`percentile` and the cached views in
    :class:`StreamingMetrics`: callers that maintain a sorted series pay
    O(1) per query instead of re-sorting the full history every call.
    """
    if not s:
        raise ValueError("no values to take a percentile of")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if len(s) == 1:
        return s[0]
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    frac = pos - lo
    return s[lo] + (s[hi] - s[lo]) * frac


def percentile(values: Sequence[float], q: float) -> float:
    """Exact ``q``-quantile (0..1) with linear interpolation.

    Unlike the bucket-interpolated estimates of
    :class:`~repro.obs.registry.Histogram`, this works on the raw sample
    and is exact — the right tool for experiment reports, where the full
    batch history is in hand anyway.
    """
    if not values:
        raise ValueError("no values to take a percentile of")
    return percentile_sorted(sorted(float(v) for v in values), q)


def percentiles(
    values: Sequence[float], qs: Sequence[float] = (0.5, 0.95, 0.99)
) -> Tuple[float, ...]:
    """The usual report triple (p50, p95, p99) in one call."""
    if not values:
        raise ValueError("no values to take a percentile of")
    s = sorted(float(v) for v in values)
    return tuple(percentile_sorted(s, q) for q in qs)


_set = object.__setattr__  # stores into frozen instances


@dataclass(frozen=True, init=False)
class BatchInfo:
    """Complete record of one processed micro-batch."""

    batch_index: int
    batch_time: float
    """Simulation time at which the batch closed (arrival cutoff)."""
    interval: float
    """Batch interval in force when this batch was formed (seconds)."""
    records: int
    num_executors: int
    mean_arrival_time: float
    """Record-weighted mean arrival time of the batch's records."""
    processing_start: float
    processing_end: float
    first_after_reconfig: bool = False
    """True for the first batch processed after a configuration change
    (discarded by NoStop's metric collector, §5.4)."""

    def __init__(
        self, batch_index: int, batch_time: float, interval: float,
        records: int, num_executors: int, mean_arrival_time: float,
        processing_start: float, processing_end: float,
        first_after_reconfig: bool = False,
    ) -> None:
        # Cheaper than the generated __init__; test_metrics.py pins its
        # parameters to the fields.
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if records < 0:
            raise ValueError("records must be >= 0")
        if processing_start < batch_time - 1e-9:
            raise ValueError(
                f"batch {batch_index}: processing started at "
                f"{processing_start} before batch closed at {batch_time}"
            )
        if processing_end < processing_start:
            raise ValueError("processing_end precedes processing_start")
        _set(self, "batch_index", batch_index)
        _set(self, "batch_time", batch_time)
        _set(self, "interval", interval)
        _set(self, "records", records)
        _set(self, "num_executors", num_executors)
        _set(self, "mean_arrival_time", mean_arrival_time)
        _set(self, "processing_start", processing_start)
        _set(self, "processing_end", processing_end)
        _set(self, "first_after_reconfig", first_after_reconfig)

    @property
    def processing_time(self) -> float:
        """Batch processing time (seconds)."""
        return self.processing_end - self.processing_start

    @property
    def scheduling_delay(self) -> float:
        """Batch schedule delay (seconds); 0 when processed immediately."""
        return self.processing_start - self.batch_time

    @property
    def end_to_end_delay(self) -> float:
        """Mean record delay: output time minus mean arrival time."""
        return self.processing_end - self.mean_arrival_time

    @property
    def stable(self) -> bool:
        """Paper's stability condition for this batch."""
        return self.processing_time <= self.interval

    def to_dict(self) -> Dict[str, float]:
        """Flat dict used for the listener's JSON status reports."""
        return {
            "batchIndex": self.batch_index,
            "batchTime": self.batch_time,
            "batchInterval": self.interval,
            "numRecords": self.records,
            "numExecutors": self.num_executors,
            "schedulingDelay": self.scheduling_delay,
            "processingTime": self.processing_time,
            "endToEndDelay": self.end_to_end_delay,
            "firstAfterReconfig": self.first_after_reconfig,
        }


@dataclass
class StreamingMetrics:
    """Rolling aggregate over processed batches.

    Percentile queries run against lazily-synchronized sorted views of
    the processing-time and end-to-end-delay series: new batches are
    merged in with ``bisect.insort`` on the next query instead of
    re-sorting the full history on every call — controllers that poll
    tail delay each round stay O(log n) per batch instead of
    O(n log n).
    """

    batches: List[BatchInfo] = field(default_factory=list)
    _pt_sorted: List[float] = field(default_factory=list, repr=False, compare=False)
    _delay_sorted: List[float] = field(default_factory=list, repr=False, compare=False)
    _sorted_upto: int = field(default=0, repr=False, compare=False)
    _synced_list: Optional[List[BatchInfo]] = field(
        default=None, repr=False, compare=False
    )
    _synced_last_index: int = field(default=-1, repr=False, compare=False)

    def record(self, info: BatchInfo) -> None:
        if self.batches and info.batch_index <= self.batches[-1].batch_index:
            raise ValueError(
                f"batch index {info.batch_index} not increasing "
                f"(last was {self.batches[-1].batch_index})"
            )
        self.batches.append(info)

    def _sorted_views(self) -> Tuple[List[float], List[float]]:
        """Sorted processing-time / end-to-end-delay series, synced."""
        n = len(self.batches)
        # A shrunken series is not the only external mutation that
        # invalidates the incremental merge: ``batches`` may be rebound
        # to a new list, or truncated and refilled back to equal-or-
        # greater length.  Both leave ``_sorted_upto <= n`` while the
        # synced prefix no longer matches, which would silently merge
        # stale entries into the views.  Track the list identity and the
        # index of the last synced batch so any replacement forces a
        # full rebuild.
        prefix_intact = (
            self._synced_list is self.batches
            and (
                self._sorted_upto == 0
                or (
                    self._sorted_upto <= n
                    and self.batches[self._sorted_upto - 1].batch_index
                    == self._synced_last_index
                )
            )
        )
        if not prefix_intact:
            self._pt_sorted = sorted(b.processing_time for b in self.batches)
            self._delay_sorted = sorted(b.end_to_end_delay for b in self.batches)
        else:
            for b in self.batches[self._sorted_upto:]:
                insort(self._pt_sorted, b.processing_time)
                insort(self._delay_sorted, b.end_to_end_delay)
        self._sorted_upto = n
        self._synced_list = self.batches
        self._synced_last_index = self.batches[-1].batch_index if n else -1
        return self._pt_sorted, self._delay_sorted

    def __len__(self) -> int:
        return len(self.batches)

    @property
    def last(self) -> Optional[BatchInfo]:
        return self.batches[-1] if self.batches else None

    def recent(self, n: int) -> List[BatchInfo]:
        if n < 0:
            raise ValueError("n must be >= 0")
        return self.batches[-n:] if n else []

    def mean_processing_time(self, last_n: Optional[int] = None) -> float:
        batch = self.batches if last_n is None else self.recent(last_n)
        if not batch:
            raise ValueError("no batches recorded")
        return sum(b.processing_time for b in batch) / len(batch)

    def processing_time_percentile(self, q: float) -> float:
        pt, _ = self._sorted_views()
        return percentile_sorted(pt, q)

    def end_to_end_delay_percentile(self, q: float) -> float:
        _, delays = self._sorted_views()
        return percentile_sorted(delays, q)

    def delay_percentiles(
        self, qs: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> Tuple[float, ...]:
        """Tail view of end-to-end delay — mean alone hides instability."""
        _, delays = self._sorted_views()
        if not delays:
            raise ValueError("no values to take a percentile of")
        return tuple(percentile_sorted(delays, q) for q in qs)

    def total_records(self) -> int:
        return sum(b.records for b in self.batches)

    def unstable_fraction(self) -> float:
        """Fraction of batches violating interval >= processing time."""
        if not self.batches:
            return 0.0
        return sum(1 for b in self.batches if not b.stable) / len(self.batches)

"""Kafka partition model.

A partition is an append-only log.  To keep millions of simulated records
cheap, the log stores *segments* — ``(t0, t1, count)`` spans during which
records arrived at a uniform rate — rather than individual messages.
Offsets are exact; arrival timestamps inside a segment are interpolated
linearly, which matches a producer that spreads records evenly over the
production interval.

Lookups are O(log n) via binary search over parallel segment arrays —
the receiver polls every batch boundary for the lifetime of a run, so
linear scans here would dominate whole-experiment cost.

Appends *coalesce*: a segment that is exactly contiguous with the tail
segment and carries exactly the same arrival rate extends it in place
instead of growing the arrays.  A constant-rate producer ticking once a
second therefore keeps the log at one segment per rate change rather
than one per tick, which keeps :meth:`Partition.mean_arrival_time` (run
per partition per batch) away from long segment scans.  Interpolation
inside a merged segment is identical to the per-tick answer because the
per-record spacing is unchanged.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Segment:
    """``count`` records appended uniformly over ``[t0, t1)``."""

    t0: float
    t1: float
    count: int
    base_offset: int

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise ValueError(f"segment end {self.t1} precedes start {self.t0}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.base_offset < 0:
            raise ValueError("base_offset must be >= 0")

    def timestamp_of(self, offset: int) -> float:
        """Arrival time of the record at absolute ``offset``."""
        if not (self.base_offset <= offset < self.base_offset + self.count):
            raise IndexError(f"offset {offset} outside segment")
        if self.count == 1:
            return self.t0
        frac = (offset - self.base_offset) / self.count
        return self.t0 + frac * (self.t1 - self.t0)


class Partition:
    """One ordered, append-only shard of a topic."""

    def __init__(self, partition_id: int) -> None:
        self.partition_id = partition_id
        # Parallel segment arrays (non-empty segments only).
        self._t0: List[float] = []
        self._t1: List[float] = []
        self._counts: List[int] = []
        self._bases: List[int] = []
        self._end_offset = 0
        self._last_t1 = 0.0
        self._nonempty_appends = 0

    @property
    def end_offset(self) -> int:
        """Offset one past the last appended record."""
        return self._end_offset

    @property
    def segment_count(self) -> int:
        """Number of non-empty segments (O(1), unlike ``segments``)."""
        return len(self._counts)

    @property
    def nonempty_appends(self) -> int:
        """Non-empty :meth:`append` calls so far (>= ``segment_count``).

        Unlike ``segment_count`` this is unaffected by coalescing, so it
        is a stable rotation key for round-robining remainders across
        partitions (see :meth:`repro.kafka.topic.Topic.append_uniform`).
        """
        return self._nonempty_appends

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return tuple(
            Segment(t0=a, t1=b, count=c, base_offset=o)
            for a, b, c, o in zip(self._t0, self._t1, self._counts, self._bases)
        )

    def append(self, t0: float, t1: float, count: int) -> None:
        """Append ``count`` records spread uniformly over ``[t0, t1)``."""
        self._check(t0, t1, count)
        self._extend(t0, t1, count)

    def _check(self, t0: float, t1: float, count: int) -> None:
        """Raise unless ``count`` records over ``[t0, t1)`` may follow."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if t1 < t0:
            raise ValueError(f"segment end {t1} precedes start {t0}")
        if t0 < self._last_t1 - 1e-9:
            raise ValueError(
                f"append at t0={t0} overlaps previous segment ending at "
                f"{self._last_t1}"
            )

    def _extend(self, t0: float, t1: float, count: int) -> None:
        """:meth:`append` after :meth:`_check` passed for ``(t0, t1)``."""
        if t1 > self._last_t1:
            self._last_t1 = t1
        if count == 0:
            return
        self._nonempty_appends += 1
        if self._counts:
            pt0 = self._t0[-1]
            pt1 = self._t1[-1]
            pcount = self._counts[-1]
            # Coalesce a contiguous same-rate extension.  Exact float
            # equality on purpose: the per-tick producer reuses the
            # previous tick's end as the next start, and cross-multiplied
            # rates are equal without division error when the tick counts
            # and durations repeat — any other append keeps its own
            # segment so interpolation never changes.
            if t0 == pt1 and count * (pt1 - pt0) == pcount * (t1 - t0):
                self._t1[-1] = t1
                self._counts[-1] = pcount + count
                self._end_offset += count
                return
        self._t0.append(t0)
        self._t1.append(t1)
        self._counts.append(count)
        self._bases.append(self._end_offset)
        self._end_offset += count

    def offset_at(self, t: float) -> int:
        """Number of records that have arrived strictly before time ``t``."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        # Index of the first segment with t1 > t: all earlier segments are
        # fully arrived; that segment may be partially arrived.
        i = bisect.bisect_right(self._t1, t)
        if i == len(self._t0):
            return self._end_offset
        total = self._bases[i]
        if t > self._t0[i]:
            span = self._t1[i] - self._t0[i]
            frac = (t - self._t0[i]) / span if span > 0 else 1.0
            total += int(frac * self._counts[i])
        return total

    def timestamp_of(self, offset: int) -> float:
        """Arrival time of the record at ``offset``."""
        if not (0 <= offset < self._end_offset):
            raise IndexError(
                f"offset {offset} out of range [0, {self._end_offset})"
            )
        i = bisect.bisect_right(self._bases, offset) - 1
        seg = Segment(
            t0=self._t0[i],
            t1=self._t1[i],
            count=self._counts[i],
            base_offset=self._bases[i],
        )
        return seg.timestamp_of(offset)

    def mean_arrival_time(self, start_offset: int, end_offset: int) -> float:
        """Record-weighted mean arrival time over ``[start, end)`` offsets.

        Used for end-to-end latency accounting: the average delay of a
        batch's records is (output time − mean arrival time).
        """
        if end_offset <= start_offset:
            raise ValueError("empty offset range")
        if end_offset > self._end_offset:
            raise IndexError("end_offset beyond log end")
        bases, counts, t0s, t1s = self._bases, self._counts, self._t0, self._t1
        total_time = 0.0
        total_count = 0
        # First segment overlapping the range.
        i = max(bisect.bisect_right(bases, start_offset) - 1, 0)
        while i < len(t0s) and bases[i] < end_offset:
            base = bases[i]
            hi = base + counts[i]
            lo = start_offset if start_offset > base else base
            if end_offset < hi:
                hi = end_offset
            if hi > lo:
                # Mean timestamp of offsets [lo, hi) inside a uniform segment.
                mid_frac = ((lo + hi) / 2.0 - base) / counts[i]
                total_time += (t0s[i] + mid_frac * (t1s[i] - t0s[i])) * (hi - lo)
                total_count += hi - lo
            i += 1
        return total_time / total_count

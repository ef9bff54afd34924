"""Kafka partition logs, kept as one columnar log per topic.

A partition is an append-only log.  To keep millions of simulated records
cheap, the log stores *segments* — ``(t0, t1, count)`` spans during which
records arrived at a uniform rate — rather than individual messages.
Offsets are exact; arrival timestamps inside a segment are interpolated
linearly, which matches a producer that spreads records evenly over the
production interval.

A topic's partitions live in one :class:`PartitionLog`: parallel segment
columns (``t0s``, ``t1s``, ``counts``, ``bases``; one list per
partition) that the topic-wide writer and the consumer walk in one pass
each, with no per-partition object or method call on the way.  A
partition's end offset is its last segment's base plus count.  A
:class:`Partition` is a view of one partition of a log, for callers that
ask about a single partition; built on its own it owns a one-partition
log.

Lookups are O(log n) via binary search over the segment columns — the
receiver polls every batch boundary for the lifetime of a run, so
linear scans here would dominate whole-experiment cost.

Appends *coalesce*: a segment that is exactly contiguous with a
partition's tail segment and carries exactly the same arrival rate
extends it in place instead of growing the columns.  A constant-rate
producer ticking once a second therefore keeps the log at one segment
per rate change rather than one per tick, which keeps
:meth:`PartitionLog.range_means` (run over every partition per batch)
away from long segment scans.  Interpolation inside a merged segment is
identical to the per-tick answer because the per-record spacing is
unchanged.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


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


def _offset_at(t0s, t1s, counts, bases, t: float) -> int:
    """Records of one partition's columns that arrived strictly before
    ``t`` (``t >= 0``)."""
    # Index of the first segment with t1 > t: all earlier segments are
    # fully arrived; that segment may be partially arrived.
    i = bisect.bisect_right(t1s, t)
    if i == len(t0s):
        return bases[-1] + counts[-1] if counts else 0
    total = bases[i]
    if t > t0s[i]:
        span = t1s[i] - t0s[i]
        frac = (t - t0s[i]) / span if span > 0 else 1.0
        total += int(frac * counts[i])
    return total


class PartitionLog:
    """The segment columns of every partition of one topic.

    ``t0s[p]``, ``t1s[p]``, ``counts[p]`` and ``bases[p]`` hold
    partition ``p``'s non-empty segments in append order.  Every append
    covers all partitions over the same span, so the log keeps one
    ``last_t1`` for all of them.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError(f"need at least one partition, got {num_partitions}")
        n = num_partitions
        self.t0s: List[List[float]] = [[] for _ in range(n)]
        self.t1s: List[List[float]] = [[] for _ in range(n)]
        self.counts: List[List[int]] = [[] for _ in range(n)]
        self.bases: List[List[int]] = [[] for _ in range(n)]
        #: End of the latest append (empty ones included).
        self.last_t1 = 0.0
        # Non-empty appends per partition: an append of at least one
        # record per partition reaches them all (counted once here); a
        # smaller one reaches only its remainder partitions.
        self._full_appends = 0
        self._partial_appends = [0] * n

    @property
    def num_partitions(self) -> int:
        return len(self.t0s)

    def end_offsets(self) -> List[int]:
        """Each partition's offset one past its last record."""
        return [b[-1] + c[-1] if c else 0 for b, c in zip(self.bases, self.counts)]

    def total_records(self) -> int:
        """Records appended across all partitions."""
        return sum(self.end_offsets())

    def nonempty_appends(self, p: int) -> int:
        """Appends that gave partition ``p`` at least one record.

        Unlike its segment count this is unaffected by coalescing, so
        partition 0's is a stable rotation key for round-robining
        remainders across partitions (see :meth:`append_uniform`).
        """
        return self._full_appends + self._partial_appends[p]

    def offsets_at(self, t: float) -> List[int]:
        """Each partition's count of records that arrived strictly before
        ``t``."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        if t >= self.last_t1:
            return self.end_offsets()
        return [
            _offset_at(a, b, c, o, t)
            for a, b, c, o in zip(self.t0s, self.t1s, self.counts, self.bases)
        ]

    def records_before(self, t: float) -> int:
        """Records that arrived strictly before time ``t``, topic-wide."""
        return sum(self.offsets_at(t))

    def append_uniform(self, t0: float, t1: float, count: int) -> None:
        """Append ``count`` records over ``[t0, t1)`` spread evenly over
        the partitions.

        Mirrors the paper's skew-free setup: "The data are sent to each
        Kafka Broker uniformly to avoid data skew."  The remainder after
        integer division goes to a run of consecutive partitions
        starting at partition 0's count of non-empty appends, so it
        rotates and no partition is systematically favored.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if t1 < t0:
            raise ValueError(f"segment end {t1} precedes start {t0}")
        if t0 < self.last_t1 - 1e-9:
            raise ValueError(
                f"append at t0={t0} overlaps previous segment ending at "
                f"{self.last_t1}"
            )
        if t1 > self.last_t1:
            self.last_t1 = t1
        if count == 0:
            return
        n = len(self.t0s)
        base, rem = divmod(count, n)
        first = (self._full_appends + self._partial_appends[0]) % n
        if base:
            self._full_appends += 1
            # Partitions first .. first + rem - 1 (mod n) get one more.
            row = [base + 1] * rem + [base] * (n - rem)
            row = row[n - first:] + row[:n - first]
            columns = zip(self.t0s, self.t1s, self.counts, self.bases, row)
        else:
            targets = [(first + k) % n for k in range(rem)]
            for p in targets:
                self._partial_appends[p] += 1
            columns = (
                (self.t0s[p], self.t1s[p], self.counts[p], self.bases[p], 1)
                for p in targets
            )
        span = t1 - t0
        for t0l, t1l, cl, bl, c in columns:
            if cl:
                pt1 = t1l[-1]
                pc = cl[-1]
                # Coalesce a contiguous same-rate extension.  Exact float
                # equality on purpose: the per-tick producer reuses the
                # previous tick's end as the next start, and
                # cross-multiplied rates are equal without division error
                # when the tick counts and durations repeat — any other
                # append keeps its own segment so interpolation never
                # changes.
                if t0 == pt1 and c * (pt1 - t0l[-1]) == pc * span:
                    t1l[-1] = t1
                    cl[-1] = pc + c
                    continue
                bl.append(bl[-1] + pc)
            else:
                bl.append(0)
            t0l.append(t0)
            t1l.append(t1)
            cl.append(c)

    def offset_at(self, p: int, t: float) -> int:
        """Records of partition ``p`` that arrived strictly before ``t``."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        return _offset_at(self.t0s[p], self.t1s[p], self.counts[p], self.bases[p], t)

    def timestamp_of(self, p: int, offset: int) -> float:
        """Arrival time of partition ``p``'s record at ``offset``."""
        bases = self.bases[p]
        counts = self.counts[p]
        end = bases[-1] + counts[-1] if counts else 0
        if not (0 <= offset < end):
            raise IndexError(f"offset {offset} out of range [0, {end})")
        i = bisect.bisect_right(bases, offset) - 1
        seg = Segment(
            t0=self.t0s[p][i],
            t1=self.t1s[p][i],
            count=counts[i],
            base_offset=bases[i],
        )
        return seg.timestamp_of(offset)

    def mean_arrival_time(self, p: int, start: int, end: int) -> float:
        """Record-weighted mean arrival time over partition ``p``'s
        offsets ``[start, end)``.

        Used for end-to-end latency accounting: the average delay of a
        batch's records is (output time − mean arrival time).
        """
        if end <= start:
            raise ValueError("empty offset range")
        counts = self.counts[p]
        if end > (self.bases[p][-1] + counts[-1] if counts else 0):
            raise IndexError("end_offset beyond log end")
        starts = [0] * self.num_partitions
        ends = [0] * self.num_partitions
        starts[p] = start
        ends[p] = end
        return self.range_means(starts, ends)[p]

    def range_means(
        self, starts: Sequence[int], ends: Sequence[int]
    ) -> List[Optional[float]]:
        """Each partition's record-weighted mean arrival time over its
        offsets ``[starts[p], ends[p])``; None for an empty range."""
        means: List[Optional[float]] = []
        bisect_right = bisect.bisect_right
        for t0s, t1s, counts, bases, start, end in zip(
            self.t0s, self.t1s, self.counts, self.bases, starts, ends
        ):
            if end == start:
                means.append(None)
                continue
            total_time = 0.0
            total_count = 0
            n = len(t0s)
            # First segment overlapping the range.
            i = bisect_right(bases, start) - 1
            if i < 0:
                i = 0
            while i < n:
                base = bases[i]
                if base >= end:
                    break
                hi = base + counts[i]
                lo = start if start > base else base
                if end < hi:
                    hi = end
                if hi > lo:
                    # Mean timestamp of offsets [lo, hi) inside a uniform
                    # segment.
                    mid_frac = ((lo + hi) / 2.0 - base) / counts[i]
                    total_time += (
                        (t0s[i] + mid_frac * (t1s[i] - t0s[i])) * (hi - lo)
                    )
                    total_count += hi - lo
                i += 1
            means.append(total_time / total_count)
        return means


class Partition:
    """One partition of a :class:`PartitionLog`.

    A topic hands out one view per partition.  ``Partition(i)`` on its
    own owns a one-partition log and may :meth:`append` to it; a
    topic's partitions are written only through the topic.
    """

    __slots__ = ("partition_id", "_log", "_p")

    def __init__(
        self,
        partition_id: int,
        log: Optional[PartitionLog] = None,
        index: int = 0,
    ) -> None:
        self.partition_id = partition_id
        self._log = PartitionLog(1) if log is None else log
        self._p = index

    @property
    def end_offset(self) -> int:
        """Offset one past the last appended record."""
        counts = self._log.counts[self._p]
        return self._log.bases[self._p][-1] + counts[-1] if counts else 0

    @property
    def segment_count(self) -> int:
        """Number of non-empty segments (O(1), unlike ``segments``)."""
        return len(self._log.counts[self._p])

    @property
    def nonempty_appends(self) -> int:
        """Non-empty appends so far (>= ``segment_count``)."""
        return self._log.nonempty_appends(self._p)

    @property
    def segments(self) -> Tuple[Segment, ...]:
        log, p = self._log, self._p
        return tuple(
            Segment(t0=a, t1=b, count=c, base_offset=o)
            for a, b, c, o in zip(log.t0s[p], log.t1s[p], log.counts[p], log.bases[p])
        )

    def append(self, t0: float, t1: float, count: int) -> None:
        """Append ``count`` records spread uniformly over ``[t0, t1)``."""
        if self._log.num_partitions != 1:
            raise TypeError(
                "a topic's partitions are written through Topic.append_uniform"
            )
        self._log.append_uniform(t0, t1, count)

    def offset_at(self, t: float) -> int:
        """Number of records that have arrived strictly before time ``t``."""
        return self._log.offset_at(self._p, t)

    def timestamp_of(self, offset: int) -> float:
        """Arrival time of the record at ``offset``."""
        return self._log.timestamp_of(self._p, offset)

    def mean_arrival_time(self, start_offset: int, end_offset: int) -> float:
        """Record-weighted mean arrival time over ``[start, end)`` offsets."""
        return self._log.mean_arrival_time(self._p, start_offset, end_offset)

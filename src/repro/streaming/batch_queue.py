"""Batch queue.

Spark Streaming enqueues each closed micro-batch and the engine drains
the queue one job at a time (``spark.streaming.concurrentJobs = 1``, the
default the paper assumes).  When batch processing time exceeds the batch
interval, "the unprocessed batches would pile up in the batch queue"
(§3.1) — the queue's length over time is the instability signal.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterator, Optional

from repro.obs.span import TraceContext


class QueuedBatch:
    """A closed batch, from its record source through the queue to the
    engine.

    The record source sets the arrivals (``records`` closed at
    ``batch_time``, their record-weighted ``mean_arrival_time``), the
    pipeline the ``interval`` and ``trace`` (the root-span context the
    engine parents its spans off), and the engine's coster
    ``batch_index`` and ``cost`` at enqueue.  ``cost`` is the exact
    tier's :class:`~repro.engine.job.BatchJob` or a fast tier's
    processing time — ``None`` once a reconfiguration made it stale, so
    the batch is re-costed from ``cost_records``, the effective records
    (windowed workloads process more than they receive).
    """

    __slots__ = (
        "batch_time", "records", "mean_arrival_time", "interval",
        "batch_index", "cost", "cost_records", "trace",
    )

    def __init__(
        self,
        batch_time: float,
        records: int,
        mean_arrival_time: float,
        interval: float = 0.0,
        cost: Any = None,
    ) -> None:
        self.batch_time = batch_time
        self.records = records
        self.mean_arrival_time = mean_arrival_time
        self.interval = interval
        self.batch_index = 0
        self.cost = cost
        self.cost_records = records
        self.trace: Optional[TraceContext] = None


class BatchQueue:
    """FIFO queue of closed batches with occupancy accounting."""

    def __init__(self, max_length: Optional[int] = None) -> None:
        if max_length is not None and max_length < 1:
            raise ValueError("max_length must be >= 1 when set")
        self._queue: Deque[QueuedBatch] = deque()
        self.max_length = max_length
        self.total_enqueued = 0
        self.total_dequeued = 0
        self.total_dropped = 0
        #: records carried by evicted batches — the record-level side of
        #: :meth:`conservation_ok`, needed to balance consumed records
        #: against processed + waiting + lost.
        self.total_dropped_records = 0
        self.peak_length = 0
        #: The batch evicted by the most recent :meth:`enqueue` call, or
        #: None — lets the caller close the evicted batch's trace.
        self.last_evicted: Optional[QueuedBatch] = None

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[QueuedBatch]:
        return iter(self._queue)

    def peek(self) -> Optional[QueuedBatch]:
        """The oldest waiting batch, or None when the queue is empty."""
        return self._queue[0] if self._queue else None

    def enqueue(self, batch: QueuedBatch) -> bool:
        """Add a closed batch; returns False if an old batch was evicted.

        A bounded queue models the "possible data loss or system failure"
        the paper warns about for long-running unstable applications: at
        capacity the *oldest* waiting batch is evicted (its records are
        lost, as with Kafka retention expiry under deep consumer lag) so
        the newest data keeps flowing — a backlogged direct stream never
        blocks ingestion.
        """
        queue = self._queue
        queue.append(batch)
        self.total_enqueued += 1
        waiting = len(queue)
        if self.max_length is not None and waiting > self.max_length:
            evicted = self.last_evicted = queue.popleft()
            self.total_dropped += 1
            self.total_dropped_records += evicted.records
            return False
        self.last_evicted = None
        if waiting > self.peak_length:
            self.peak_length = waiting
        return True

    def dequeue(self, now: float) -> QueuedBatch:
        """Pop the oldest batch for processing (IndexError when empty)."""
        batch = self._queue.popleft()
        if now + 1e-9 < batch.batch_time:
            raise ValueError(
                f"dequeue at {now} before batch enqueued at {batch.batch_time}"
            )
        self.total_dequeued += 1
        return batch

    def queued_records(self) -> int:
        """Records currently waiting in the queue (unprocessed backlog)."""
        return sum(qb.records for qb in self._queue)

    def conservation_ok(self) -> bool:
        """Invariant: every enqueued batch was dequeued, evicted, or waits."""
        return (
            self.total_enqueued
            == self.total_dequeued + self.total_dropped + len(self._queue)
        )

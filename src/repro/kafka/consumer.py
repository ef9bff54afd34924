"""Direct-stream Kafka consumer.

Models Spark Streaming's direct Kafka integration: at every batch
boundary the receiver asks each partition for the offset range that
arrived during the batch interval, and the batch is exactly the union of
those ranges.  The consumer tracks committed offsets per partition so
records are consumed exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.obs import catalog
from repro.obs.registry import NOOP_REGISTRY, MetricsRegistry

from .topic import Topic


@dataclass(frozen=True)
class OffsetRange:
    """Offsets ``[start, end)`` consumed from one partition for a batch."""

    partition_id: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"end {self.end} precedes start {self.start}")

    @property
    def count(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class ConsumedBatch:
    """All offset ranges consumed at one batch boundary."""

    batch_time: float
    ranges: List[OffsetRange]
    total_records: int
    """Records over all ``ranges``, counted as they are consumed."""


class DirectStreamConsumer:
    """Exactly-once offset-range consumer over a topic."""

    def __init__(self, topic: Topic) -> None:
        self.topic = topic
        self._committed: List[int] = [0] * topic.num_partitions
        self.total_consumed = 0
        self.instrument(NOOP_REGISTRY)

    def instrument(self, registry: MetricsRegistry) -> None:
        """Bind telemetry instruments (no-op registry by default).

        The consumed/lag series carry a ``topic`` label so multi-topic
        runs stay distinguishable; the child is bound once here, keeping
        the poll hot path label-free.
        """
        self._m_consumed = catalog.instrument(
            registry, "repro_kafka_records_consumed_total"
        ).labels(topic=self.topic.name)
        self._m_polls = catalog.instrument(
            registry, "repro_kafka_consumer_polls_total"
        )
        self._m_lag = catalog.instrument(
            registry, "repro_kafka_consumer_lag_records"
        ).labels(topic=self.topic.name)

    def lag(self) -> int:
        """Records appended but not yet consumed (input-queue backlog)."""
        return sum(
            p.end_offset - self._committed[p.partition_id]
            for p in self.topic.partitions
        )

    def poll(self, batch_time: float) -> ConsumedBatch:
        """Consume everything that arrived strictly before ``batch_time``."""
        ranges: List[OffsetRange] = []
        committed = self._committed
        total = 0
        lag = 0
        for p in self.topic.partitions:
            pid = p.partition_id
            end = p.offset_at(batch_time)
            start = committed[pid]
            if end < start:
                raise RuntimeError(
                    f"partition {pid}: offset went backwards "
                    f"({end} < committed {start})"
                )
            ranges.append(OffsetRange(pid, start, end))
            committed[pid] = end
            total += end - start
            lag += p.end_offset - end
        self.total_consumed += total
        self._m_polls.inc()
        self._m_consumed.inc(total)
        self._m_lag.set(lag)
        return ConsumedBatch(batch_time, ranges, total)

    def mean_arrival_time(self, batch: ConsumedBatch) -> float:
        """Record-weighted mean arrival time of a consumed batch.

        Falls back to the batch time for empty batches.
        """
        partitions = self.topic.partitions
        total_t = 0.0
        total_n = 0
        for r in batch.ranges:
            count = r.end - r.start
            if count:
                p = partitions[r.partition_id]
                total_t += p.mean_arrival_time(r.start, r.end) * count
                total_n += count
        if total_n == 0:
            return batch.batch_time
        return total_t / total_n

"""Direct-stream Kafka consumer.

Models Spark Streaming's direct Kafka integration: at every batch
boundary the receiver asks each partition for the offset range that
arrived during the batch interval, and the batch is exactly the union of
those ranges.  The consumer tracks committed offsets per partition so
records are consumed exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

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
    """All offset ranges consumed at one batch boundary: partition
    ``p``'s records ``[starts[p], ends[p])``."""

    batch_time: float
    starts: Sequence[int]
    ends: Sequence[int]
    total_records: int
    """Records over all ranges, counted as they are consumed."""

    @property
    def ranges(self) -> List[OffsetRange]:
        """The per-partition ranges, as :class:`OffsetRange` objects."""
        return [
            OffsetRange(pid, start, end)
            for pid, (start, end) in enumerate(zip(self.starts, self.ends))
        ]


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
        return self.topic.total_records() - sum(self._committed)

    def poll(self, batch_time: float) -> ConsumedBatch:
        """Consume everything that arrived strictly before ``batch_time``.

        The committed offsets are replaced, never updated in place, so a
        returned batch keeps its ranges.
        """
        topic = self.topic
        starts = self._committed
        ends = topic.offsets_at(batch_time)
        if batch_time < topic.last_t1:
            # Behind the produced time: a partition's offset may not
            # have reached what an earlier, later-timed poll committed.
            for pid, (start, end) in enumerate(zip(starts, ends)):
                if end < start:
                    raise RuntimeError(
                        f"partition {pid}: offset went backwards "
                        f"({end} < committed {start})"
                    )
            lag = topic.total_records() - sum(ends)
        else:
            lag = 0
        total = sum(ends) - sum(starts)
        self._committed = ends
        self.total_consumed += total
        self._m_polls.inc()
        self._m_consumed.inc(total)
        self._m_lag.set(lag)
        return ConsumedBatch(batch_time, starts, ends, total)

    def mean_arrival_time(self, batch: ConsumedBatch) -> float:
        """Record-weighted mean arrival time of a consumed batch.

        Falls back to the batch time for empty batches.
        """
        total_t = 0.0
        total_n = 0
        means = self.topic.range_means(batch.starts, batch.ends)
        for mean, start, end in zip(means, batch.starts, batch.ends):
            if mean is not None:
                count = end - start
                total_t += mean * count
                total_n += count
        if total_n == 0:
            return batch.batch_time
        return total_t / total_n

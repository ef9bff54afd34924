"""Kafka topic: a named set of partitions.

The paper sets "the number of Kafka partitions to be larger than the
number of cores owned by the entire cluster" to avoid broker-side
bottlenecks (§6.1); :func:`repro.kafka.cluster.KafkaCluster.create_topic`
enforces the same guidance by default.
"""

from __future__ import annotations

from typing import List

from .partition import Partition


class Topic:
    """A named collection of :class:`Partition` logs."""

    def __init__(self, name: str, num_partitions: int) -> None:
        if not name:
            raise ValueError("topic name must be non-empty")
        if num_partitions < 1:
            raise ValueError(f"need at least one partition, got {num_partitions}")
        self.name = name
        self.partitions: List[Partition] = [
            Partition(i) for i in range(num_partitions)
        ]

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def total_records(self) -> int:
        """Records appended across all partitions."""
        return sum(p.end_offset for p in self.partitions)

    def records_before(self, t: float) -> int:
        """Records that arrived strictly before time ``t``, topic-wide."""
        return sum(p.offset_at(t) for p in self.partitions)

    def append_uniform(self, t0: float, t1: float, count: int) -> None:
        """Append ``count`` records spread evenly over partitions.

        Mirrors the paper's skew-free setup: "The data are sent to each
        Kafka Broker uniformly to avoid data skew."  The remainder after
        integer division rotates across partitions keyed by the segment
        count so no partition is systematically favored.
        As the only writer, it checks the span once on partition 0 (every
        partition ends where it does) and extends each one unchecked.
        """
        partitions = self.partitions
        partitions[0]._check(t0, t1, count)
        n = len(partitions)
        base, rem = divmod(count, n)
        counts = [base] * n
        # Rotation key: non-empty appends to partition 0 (coalescing-proof,
        # and identical to the pre-coalescing segment count).
        start = partitions[0].nonempty_appends
        for k in range(rem):
            counts[(start + k) % n] += 1
        for p, c in zip(partitions, counts):
            p._extend(t0, t1, c)

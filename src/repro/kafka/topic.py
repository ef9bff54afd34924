"""Kafka topic: a named set of partitions.

The paper sets "the number of Kafka partitions to be larger than the
number of cores owned by the entire cluster" to avoid broker-side
bottlenecks (§6.1); :func:`repro.kafka.cluster.KafkaCluster.create_topic`
enforces the same guidance by default.
"""

from __future__ import annotations

from typing import List

from .partition import Partition, PartitionLog


class Topic(PartitionLog):
    """A named :class:`PartitionLog`."""

    def __init__(self, name: str, num_partitions: int) -> None:
        if not name:
            raise ValueError("topic name must be non-empty")
        super().__init__(num_partitions)
        self.name = name

    @property
    def partitions(self) -> List[Partition]:
        """A :class:`Partition` view of each partition, built on each
        read: views held by the topic would make a reference cycle, and
        a finished run's topic would then wait for the cycle collector."""
        return [Partition(i, self, i) for i in range(self.num_partitions)]

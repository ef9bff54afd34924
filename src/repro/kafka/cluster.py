"""Kafka cluster: brokers + topics."""

from __future__ import annotations

from typing import Dict, List

from .broker import KafkaBroker
from .topic import Topic


class KafkaCluster:
    """A set of brokers and the topics they host.

    The paper deploys one Kafka broker on every cluster node (§6.1) and
    over-partitions topics relative to total cluster cores.
    """

    def __init__(self, num_brokers: int) -> None:
        if num_brokers < 1:
            raise ValueError(f"need at least one broker, got {num_brokers}")
        self.brokers: List[KafkaBroker] = [
            KafkaBroker(broker_id=i + 1) for i in range(num_brokers)
        ]
        self.topics: Dict[str, Topic] = {}

    def create_topic(
        self,
        name: str,
        num_partitions: int,
        min_partitions: int = 0,
    ) -> Topic:
        """Create a topic of ``num_partitions`` partitions.

        ``min_partitions`` lets callers enforce the paper's guidance that
        partition count exceed total cluster cores.
        """
        if name in self.topics:
            raise ValueError(f"topic {name!r} already exists")
        if num_partitions < max(1, min_partitions):
            raise ValueError(
                f"topic {name!r} needs >= {max(1, min_partitions)} partitions "
                f"(got {num_partitions}); the paper over-partitions relative "
                f"to cluster cores to avoid broker bottlenecks"
            )
        topic = Topic(name, num_partitions)
        self.topics[name] = topic
        return topic

    def topic(self, name: str) -> Topic:
        try:
            return self.topics[name]
        except KeyError:
            raise KeyError(f"no topic named {name!r}") from None


def paper_kafka_cluster(total_cluster_cores: int = 36, topic: str = "events") -> KafkaCluster:
    """Five-broker Kafka deployment mirroring the paper's testbed.

    Partition count is set above ``total_cluster_cores`` per §6.1.
    """
    cluster = KafkaCluster(num_brokers=5)
    cluster.create_topic(
        topic,
        num_partitions=total_cluster_cores + 4,
        min_partitions=total_cluster_cores + 1,
    )
    return cluster

"""Kafka cluster: the topics it hosts."""

from __future__ import annotations

from typing import Dict

from .topic import Topic


class KafkaCluster:
    """The topics of a Kafka deployment.

    The paper deploys one Kafka broker on every cluster node (§6.1) and
    over-partitions topics relative to total cluster cores.  Brokers
    are not modelled: a chaos broker outage stalls the receiver.
    """

    def __init__(self) -> None:
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
    """Kafka deployment mirroring the paper's testbed.

    Partition count is set above ``total_cluster_cores`` per §6.1.
    """
    cluster = KafkaCluster()
    cluster.create_topic(
        topic,
        num_partitions=total_cluster_cores + 4,
        min_partitions=total_cluster_cores + 1,
    )
    return cluster

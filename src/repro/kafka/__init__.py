"""Simulated Kafka substrate.

Topics, segment-based partitions, a rate-controlled producer
(the paper's external data generator) and a direct-stream consumer with
exactly-once offset-range semantics.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cluster": ("KafkaCluster", "paper_kafka_cluster"),
    "consumer": ("DirectStreamConsumer",),
    "partition": ("Partition",),
    "producer": ("RateControlledProducer",),
    "topic": ("Topic",),
})

"""Unit tests for topics and the Kafka cluster."""

import pytest

from repro.kafka.cluster import KafkaCluster, paper_kafka_cluster
from repro.kafka.topic import Topic


class TestTopic:
    def test_append_uniform_conserves_records(self):
        t = Topic("events", 7)
        t.append_uniform(0.0, 1.0, 1000)
        assert t.total_records() == 1000

    def test_append_uniform_is_balanced(self):
        t = Topic("events", 7)
        for i in range(20):
            t.append_uniform(float(i), float(i + 1), 1003)
        counts = [p.end_offset for p in t.partitions]
        assert max(counts) - min(counts) <= 20  # remainder rotation keeps spread tight

    def test_remainder_rotates(self):
        t = Topic("events", 4)
        t.append_uniform(0.0, 1.0, 5)  # one partition gets the extra
        t.append_uniform(1.0, 2.0, 5)
        counts = [p.end_offset for p in t.partitions]
        assert sorted(counts) == [2, 2, 3, 3]

    def test_records_before(self):
        t = Topic("events", 2)
        t.append_uniform(0.0, 10.0, 100)
        assert sum(t.offsets_at(5.0)) == 50
        assert sum(t.offsets_at(10.0)) == 100

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Topic("", 1)
        with pytest.raises(ValueError):
            Topic("x", 0)

    def test_negative_count_rejected(self):
        t = Topic("events", 2)
        with pytest.raises(ValueError):
            t.append_uniform(0.0, 1.0, -1)


class TestKafkaCluster:
    def test_paper_cluster_over_partitions(self):
        # §6.1: partitions > total cluster cores.
        kc = paper_kafka_cluster(total_cluster_cores=36)
        assert kc.topic("events").num_partitions > 36

    def test_min_partitions_enforced(self):
        kc = KafkaCluster()
        with pytest.raises(ValueError):
            kc.create_topic("t", 4, min_partitions=8)

    def test_duplicate_topic_rejected(self):
        kc = KafkaCluster()
        kc.create_topic("t", 2)
        with pytest.raises(ValueError):
            kc.create_topic("t", 2)

    def test_unknown_topic_raises(self):
        with pytest.raises(KeyError):
            KafkaCluster().topic("nope")

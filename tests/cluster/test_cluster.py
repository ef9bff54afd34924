"""Unit tests for the cluster model and the Table 2 testbed."""

import pytest

from repro.cluster.cluster import Cluster, homogeneous_cluster, paper_cluster
from repro.cluster.node import I5_9400, DiskType, Node, NodeRole


class TestPaperCluster:
    def test_has_five_nodes_one_master(self):
        c = paper_cluster()
        assert len(c) == 5
        masters = [n for n in c if n.role is NodeRole.MASTER]
        assert [n.node_id for n in masters] == [1]
        assert len(c.workers) == 4

    def test_matches_table2_disk_layout(self):
        c = paper_cluster()
        assert c.node(1).disk is DiskType.SSD
        assert c.node(2).disk is DiskType.SSD
        for nid in (3, 4, 5):
            assert c.node(nid).disk is DiskType.HDD

    def test_is_heterogeneous(self):
        assert paper_cluster().is_heterogeneous()

    def test_capacity_supports_paper_executor_range(self):
        # §6.2.1 tunes 1..20 executors of 1 core each.
        assert paper_cluster().total_executor_capacity >= 20

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            paper_cluster().node(99)


class TestClusterValidation:
    def test_duplicate_node_ids_rejected(self):
        n1 = Node(1, I5_9400, role=NodeRole.WORKER)
        n2 = Node(1, I5_9400, role=NodeRole.WORKER)
        with pytest.raises(ValueError):
            Cluster([n1, n2])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])


class TestHomogeneousCluster:
    def test_not_heterogeneous(self):
        assert not homogeneous_cluster().is_heterogeneous()

    def test_worker_count_and_cores(self):
        c = homogeneous_cluster(workers=3, cores_per_node=4)
        assert len(c.workers) == 3
        assert c.total_executor_capacity == 12

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            homogeneous_cluster(workers=0)

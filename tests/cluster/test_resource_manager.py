"""Unit tests for dynamic executor allocation."""

import pytest

from repro.cluster.cluster import homogeneous_cluster, paper_cluster
from repro.cluster.resource_manager import (
    InsufficientResourcesError,
    ResourceManager,
)


@pytest.fixture
def rm():
    return ResourceManager(paper_cluster())


class TestLaunch:
    def test_launch_assigns_unique_ids(self, rm):
        a = rm.launch_executor()
        b = rm.launch_executor()
        assert a.executor_id != b.executor_id

    def test_launch_spreads_over_workers(self, rm):
        for _ in range(4):
            rm.launch_executor()
        nodes = {e.node.node_id for e in rm.executors}
        assert len(nodes) == 4  # one per worker before doubling up

    def test_launch_prefers_fast_node_on_tie(self, rm):
        first = rm.launch_executor()
        # All workers start empty; the fastest (I5-10400, 1.05) wins the tie.
        assert first.node.speed_factor == max(
            n.speed_factor for n in rm.cluster.workers
        )

    def test_launch_beyond_capacity_raises(self):
        rm = ResourceManager(homogeneous_cluster(workers=1, cores_per_node=2))
        rm.launch_executor()
        rm.launch_executor()
        with pytest.raises(InsufficientResourcesError):
            rm.launch_executor()

    def test_max_executors_reflects_cluster(self, rm):
        # Paper cluster: worker cores 6+6+12+12 = 36, memory allows >= 20.
        assert rm.max_executors >= 20


class TestScaleTo:
    def test_scale_up_then_down(self, rm):
        assert rm.scale_to(10) == 10
        assert rm.executor_count == 10
        assert rm.scale_to(4) == -6
        assert rm.executor_count == 4

    def test_scale_noop_returns_zero_and_no_reconfig(self, rm):
        rm.scale_to(5)
        before = rm.reconfigurations
        assert rm.scale_to(5) == 0
        assert rm.reconfigurations == before

    def test_scale_down_removes_newest_first(self, rm):
        rm.scale_to(3, now=0.0)
        rm.scale_to(5, now=10.0)
        rm.scale_to(3, now=20.0)
        assert all(e.launched_at == 0.0 for e in rm.executors)

    def test_scale_releases_node_resources(self, rm):
        rm.scale_to(20)
        rm.scale_to(0)
        assert all(n.used_cores == 0 for n in rm.cluster.workers)

    def test_scale_beyond_capacity_raises(self, rm):
        with pytest.raises(InsufficientResourcesError):
            rm.scale_to(rm.max_executors + 1)

    def test_negative_target_rejected(self, rm):
        with pytest.raises(ValueError):
            rm.scale_to(-1)

    def test_newly_launched_tracks_launch_time(self, rm):
        rm.scale_to(2, now=0.0)
        rm.scale_to(4, now=50.0)
        fresh = [e for e in rm.executors if e.launched_at >= 50.0]
        assert len(fresh) == 2
        assert all(not e.initialized for e in fresh)

    def test_remove_unknown_executor_raises(self, rm):
        with pytest.raises(KeyError):
            rm.remove_executor(123)

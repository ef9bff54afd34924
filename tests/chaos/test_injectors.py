"""Injector behavior against a live simulated deployment."""

import numpy as np
import pytest

from repro.chaos import (
    AtTime,
    BrokerOutage,
    ChaosEngine,
    DataSkewBurst,
    ExecutorCrash,
    FaultEvent,
    FaultSchedule,
    StragglerSlowdown,
)
from repro.chaos.injectors import NodeOutage
from repro.experiments.common import build_experiment


@pytest.fixture()
def setup():
    return build_experiment("wordcount", seed=3)


def rng():
    return np.random.default_rng(0)


class TestExecutorCrash:
    def test_crash_shrinks_pool_and_recover_releases_slot(self, setup):
        ctx = setup.context
        before = ctx.resource_manager.executor_count
        cap_before = ctx.resource_manager.available_capacity
        inj = ExecutorCrash(count=1, hold_slot=True)
        inj.inject(ctx, 10.0, rng())
        assert ctx.resource_manager.executor_count == before - 1
        # The freed slot is held hostage: capacity did not grow.
        assert ctx.resource_manager.available_capacity <= cap_before
        inj.recover(ctx, 70.0)
        assert ctx.resource_manager.available_capacity > cap_before - 1

    def test_never_kills_last_executor(self, setup):
        ctx = setup.context
        inj = ExecutorCrash(count=100, hold_slot=False)
        inj.inject(ctx, 10.0, rng())
        assert ctx.resource_manager.executor_count == 1


class TestNodeOutage:
    def test_node_goes_dark_and_returns(self, setup):
        ctx = setup.context
        inj = NodeOutage(worker_index=0)
        detail = inj.inject(ctx, 10.0, rng())
        victim = ctx.cluster.workers[0]
        assert not victim.online
        assert victim.executor_capacity == 0
        assert "offline" in detail
        inj.recover(ctx, 70.0)
        assert victim.online

    def test_executors_on_node_die(self, setup):
        ctx = setup.context
        before = ctx.resource_manager.executor_count
        NodeOutage(worker_index=0).inject(ctx, 10.0, rng())
        assert ctx.resource_manager.executor_count < before


class TestStraggler:
    def test_slowdown_applied_and_cleared(self, setup):
        ctx = setup.context
        inj = StragglerSlowdown(factor=4.0, count=2)
        inj.inject(ctx, 10.0, rng())
        slowed = [e for e in ctx.resource_manager.executors if e.slowdown > 1.0]
        assert len(slowed) == 2
        assert slowed[0].speed_factor == pytest.approx(
            slowed[0].node.speed_factor / 4.0
        )
        inj.recover(ctx, 50.0)
        assert all(e.slowdown == 1.0 for e in ctx.resource_manager.executors)


class TestBrokerOutage:
    def test_stall_starves_batches_then_backlog_bursts(self, setup):
        ctx = setup.context
        inj = BrokerOutage()
        inj.inject(ctx, 0.0, rng())
        assert ctx.receiver.stalled
        for _ in range(3):
            ctx.advance_one_batch()
        stalled_batches = ctx.listener.metrics.batches
        assert all(b.records == 0 for b in stalled_batches)
        inj.recover(ctx, ctx.time)
        assert not ctx.receiver.stalled
        burst = []
        for _ in range(3):
            burst.extend(ctx.advance_one_batch())
        # The held-back records arrive as a burst after recovery.
        assert any(b.records > 0 for b in burst)


class TestDataSkew:
    def test_surge_multiplies_rate(self, setup):
        ctx = setup.context
        baseline = []
        for _ in range(3):
            baseline.extend(ctx.advance_one_batch())
        DataSkewBurst(multiplier=3.0).inject(ctx, ctx.time, rng())
        surged = []
        for _ in range(3):
            surged.extend(ctx.advance_one_batch())
        mean = lambda bs: sum(b.records for b in bs) / max(len(bs), 1)  # noqa: E731
        assert mean(surged) > 1.5 * mean(baseline)


class TestEngineWiring:
    def test_fires_at_scheduled_boundary_and_recovers(self, setup):
        ctx = setup.context
        schedule = FaultSchedule.of(
            FaultEvent("skew", AtTime(30.0), DataSkewBurst(multiplier=2.0),
                       duration=20.0),
        )
        engine = ChaosEngine(ctx, schedule, seed=0)
        for _ in range(10):
            ctx.advance_one_batch()
        assert engine.injections == 1
        rec = engine.records[0]
        assert rec.fired_at == 30.0
        assert rec.recovered_at is not None
        assert rec.recovered_at >= 50.0
        assert not engine.faults_active

    def test_finish_force_recovers(self, setup):
        ctx = setup.context
        schedule = FaultSchedule.of(
            FaultEvent("stall", AtTime(10.0), BrokerOutage(), duration=1e9),
        )
        engine = ChaosEngine(ctx, schedule, seed=0)
        for _ in range(3):
            ctx.advance_one_batch()
        assert engine.faults_active
        engine.finish()
        assert not engine.faults_active
        assert not ctx.receiver.stalled

"""Property-based tests: no fault schedule can break the simulation.

Whatever combination of crashes, outages, stragglers, stalls, and skew
bursts a schedule throws at the stack, the invariants the optimizer
depends on must hold: batch processing times stay non-negative and
finite, simulated time advances monotonically (no deadlock), and the
scheduler never ends up with zero executors.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    AtTime,
    BrokerOutage,
    ChaosEngine,
    DataSkewBurst,
    ExecutorCrash,
    FaultEvent,
    FaultSchedule,
    Periodic,
    StragglerSlowdown,
)
from repro.chaos.injectors import NodeOutage
from repro.experiments.common import build_experiment

INJECTOR_FACTORIES = (
    lambda: ExecutorCrash(count=1, hold_slot=True),
    lambda: ExecutorCrash(count=3, hold_slot=False),
    lambda: NodeOutage(),
    lambda: StragglerSlowdown(factor=6.0, count=2),
    lambda: BrokerOutage(),
    lambda: DataSkewBurst(multiplier=4.0),
)


@st.composite
def fault_schedules(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    events = []
    for i in range(n):
        which = draw(st.integers(0, len(INJECTOR_FACTORIES) - 1))
        injector = INJECTOR_FACTORIES[which]()
        periodic = draw(st.booleans())
        if periodic:
            trigger = Periodic(
                period=draw(st.floats(20.0, 120.0)),
                start=draw(st.floats(0.0, 60.0)),
            )
        else:
            trigger = AtTime(draw(st.floats(0.0, 150.0)))
        duration = draw(
            st.one_of(st.none(), st.floats(5.0, 90.0))
        )
        events.append(
            FaultEvent(
                name=f"e{i}", trigger=trigger, injector=injector,
                duration=duration,
            )
        )
    return FaultSchedule(tuple(events))


class TestChaosInvariants:
    @given(schedule=fault_schedules(), seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_no_schedule_breaks_the_pipeline(self, schedule, seed):
        setup = build_experiment("wordcount", seed=seed)
        ctx = setup.context
        ChaosEngine(ctx, schedule, seed=seed)
        last_time = ctx.time
        # Bounded drive loop: every advance_one_batch call must return
        # (no deadlock / scheduler exception) and move time forward.
        for _ in range(25):
            ctx.advance_one_batch()
            assert ctx.time > last_time
            last_time = ctx.time
        assert ctx.resource_manager.executor_count >= 1
        for b in ctx.listener.metrics.batches:
            assert b.processing_time >= 0.0
            assert math.isfinite(b.processing_time)
            assert b.records >= 0

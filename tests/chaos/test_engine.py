"""The chaos engine's boundary hook against a live deployment."""

from repro.chaos import (
    ChaosEngine,
    FaultEvent,
    FaultSchedule,
    RateAbove,
    StragglerSlowdown,
)
from repro.chaos.runner import standard_chaos_schedule
from repro.datagen.rates import SpikeRate, paper_rate_trace
from repro.experiments.common import build_experiment


class TestIngestRate:
    def test_standard_schedule_never_reads_the_ingest_rate(self, monkeypatch):
        # Both standard events are AtTime triggers, which ignore the
        # rate: computing it on every boundary is pure overhead.
        ctx = build_experiment("wordcount", seed=3).context
        calls = []

        def observed_rate(window=10.0):
            calls.append(window)
            return 0.0

        monkeypatch.setattr(ctx.receiver, "observed_rate", observed_rate)
        engine = ChaosEngine(ctx, standard_chaos_schedule(), seed=3)
        ctx.advance_until(400.0)
        assert [r.name for r in engine.records] == [
            "executor-crash", "broker-stall",
        ]
        assert calls == []

    def test_rate_above_fires_under_a_surge(self):
        # Two 2x surges over the 110-190k rec/s band; the 120 s cooldown
        # lets each surge inject once.  Values pinned from the engine
        # that read the rate on every boundary.
        trace = SpikeRate(
            paper_rate_trace("wordcount", seed=3),
            spikes=((200.0, 320.0, 2.0), (500.0, 560.0, 2.0)),
        )
        ctx = build_experiment("wordcount", seed=3, rate_trace=trace).context
        schedule = FaultSchedule.of(FaultEvent(
            name="surge-straggler",
            trigger=RateAbove(threshold=250_000.0, cooldown=120.0),
            injector=StragglerSlowdown(factor=2.0, count=1),
            duration=30.0,
        ))
        engine = ChaosEngine(ctx, schedule, seed=3)
        ctx.advance_until(700.0)
        assert [r.to_dict() for r in engine.records] == [
            {
                "eventId": 1, "name": "surge-straggler",
                "kind": "StragglerSlowdown", "firedAt": 220.0,
                "detail": "executors [9] slowed 2.0x",
                "recoverDue": 250.0, "recoveredAt": 250.0,
            },
            {
                "eventId": 2, "name": "surge-straggler",
                "kind": "StragglerSlowdown", "firedAt": 520.0,
                "detail": "executors [1] slowed 2.0x",
                "recoverDue": 550.0, "recoveredAt": 550.0,
            },
        ]

"""End-to-end chaos scenarios: replay determinism and the hardening guard."""

from repro.chaos import (
    AtTime,
    FaultEvent,
    FaultSchedule,
    StragglerSlowdown,
    run_chaos_scenario,
    standard_chaos_schedule,
)
from repro.experiments.common import build_experiment

ROUNDS = 14


def run_standard(seed: int, harden: bool):
    setup = build_experiment("wordcount", seed=seed)
    return run_chaos_scenario(
        setup,
        standard_chaos_schedule(),
        rounds=ROUNDS,
        seed=seed,
        harden=harden,
        scenario="standard",
    )


class TestReplayDeterminism:
    def test_same_seed_and_schedule_is_byte_identical(self):
        first = run_standard(seed=5, harden=True).report.to_json()
        second = run_standard(seed=5, harden=True).report.to_json()
        assert first == second

    def test_different_seed_diverges(self):
        # Sanity: the byte-equality above is not vacuous.
        a = run_standard(seed=5, harden=True).report.to_json()
        b = run_standard(seed=6, harden=True).report.to_json()
        assert a != b


class TestStandardScenario:
    def test_events_fire_and_recover(self):
        result = run_standard(seed=7, harden=True)
        report = result.report
        assert [e.record.name for e in report.events] == [
            "executor-crash", "broker-stall",
        ]
        assert report.events[0].record.fired_at == 120.0
        assert report.events[1].record.fired_at == 300.0
        assert report.recovered  # finite MTTR for every event
        assert report.executor_failures >= 1

    def test_hardened_arm_mitigates(self):
        report = run_standard(seed=7, harden=True).report
        # Every detected corruption was handled (retried, rejected, or
        # guarded) rather than consumed by SPSA.
        assert report.poisoned_steps_taken == 0
        mitigations = (
            report.poisoned_steps_avoided
            + report.corrupted_retries
            + report.outlier_batches_rejected
        )
        assert mitigations >= 1

    def test_clean_monitoring_windows_after_recovery_are_not_guarded(self):
        # Each paused monitoring window starts a fresh measurement, so
        # one tainted window does not taint every later one: once the
        # faults are over, the parked optimum is re-ranked again.
        setup = build_experiment("wordcount", seed=5)
        result = run_chaos_scenario(
            setup, standard_chaos_schedule(), rounds=40, seed=5
        )
        recovered = result.engine.last_recovery_time()
        after = [
            r for r in result.nostop.paused_rounds()
            if r.sim_time >= recovered
        ]
        assert after
        assert not all(r.guarded for r in after)

    def test_unhardened_arm_takes_poisoned_steps(self):
        report = run_standard(seed=7, harden=False).report
        assert not report.hardened
        assert report.poisoned_steps_taken >= 1
        assert report.poisoned_steps_avoided == 0
        assert report.corrupted_retries == 0
        assert report.outlier_batches_rejected == 0


class TestCrashMidWindow:
    def test_straggler_mid_run_rejected_by_mad(self):
        # A straggler inflates a handful of batches mid-measurement; the
        # hardened collector must reject at least one of them instead of
        # folding the transient into an SPSA gradient.
        schedule = FaultSchedule.of(
            FaultEvent(
                name="straggler",
                trigger=AtTime(100.0),
                injector=StragglerSlowdown(factor=8.0, count=3),
                duration=40.0,
            ),
        )
        setup = build_experiment("wordcount", seed=11)
        result = run_chaos_scenario(
            setup, schedule, rounds=ROUNDS, seed=11,
            harden=True, scenario="straggler",
        )
        report = result.report
        assert report.outlier_batches_rejected >= 1
        assert report.poisoned_steps_taken == 0
        assert report.recovered

    def test_report_json_encodes_infinity_as_null(self):
        # An event that never recovers must serialize (JSON has no inf).
        import json
        import math

        schedule = FaultSchedule.of(
            FaultEvent(
                name="late",
                trigger=AtTime(1e8),  # never fires in this run
                injector=StragglerSlowdown(factor=2.0),
            ),
        )
        setup = build_experiment("wordcount", seed=1)
        result = run_chaos_scenario(
            setup, schedule, rounds=4, seed=1, harden=True, scenario="late",
        )
        payload = json.loads(result.report.to_json())
        assert payload["events"] == []
        assert payload["meanMttr"] == 0.0 or payload["meanMttr"] is None
        assert not math.isinf(result.report.sim_duration)

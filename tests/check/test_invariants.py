"""Invariant engine: clean runs stay silent, every tamper is caught."""

import pytest

from repro.baselines.fixed import run_fixed_configuration
from repro.check.invariants import InvariantEngine
from repro.engine.task_scheduler import JobRun
from repro.engine.task import TaskRun, TaskSpec
from repro.experiments.common import build_experiment
from repro.fast import FIDELITIES
from repro.streaming.metrics import BatchInfo

#: The tiers served by ``repro.fast`` (everything but the exact DES).
FAST_FIDELITIES = FIDELITIES[1:]


def _run(workload="logistic_regression", seed=3, batches=10, **kwargs):
    setup = build_experiment(workload, seed=seed, **kwargs)
    engine = InvariantEngine(setup.context)
    run_fixed_configuration(setup.context, batches=batches, warmup=2)
    return setup, engine


class TestCleanRuns:
    def test_fixed_run_has_zero_violations(self):
        _, engine = _run()
        assert engine.ok
        assert engine.total_violations == 0
        assert engine.checks_run > 0
        assert engine.batches_checked >= 10

    def test_reconfigured_run_stays_clean(self):
        # Reconfiguration injects pauses — the slack budget must absorb
        # them without tripping the Little's-law check.
        setup = build_experiment("logistic_regression", seed=5)
        engine = InvariantEngine(setup.context)
        ctx = setup.context
        run_fixed_configuration(ctx, batches=4, warmup=1)
        ctx.change_configuration(batch_interval=14.0, num_executors=6)
        run_fixed_configuration(ctx, batches=4, warmup=1)
        ctx.change_configuration(batch_interval=9.0, num_executors=12)
        run_fixed_configuration(ctx, batches=4, warmup=1)
        assert engine.ok, [v.render() for v in engine.violations]
        assert ctx.engine.total_pause_injected > 0

    def test_bounded_queue_drops_stay_conserved(self):
        # An unstable config on a tiny queue evicts batches; the dropped
        # records must balance the conservation ledger, not break it.
        setup = build_experiment(
            "logistic_regression", seed=2, batch_interval=4.0,
            num_executors=2, queue_max_length=2,
        )
        engine = InvariantEngine(setup.context)
        run_fixed_configuration(setup.context, batches=8, warmup=1)
        assert setup.context.queue.total_dropped > 0
        assert setup.context.queue.total_dropped_records > 0
        assert engine.ok, [v.render() for v in engine.violations]

    @pytest.mark.parametrize("fidelity", FAST_FIDELITIES)
    def test_fast_tiers_check_live(self, fidelity):
        # Reconfiguration pauses, a crash and queue evictions: the fast
        # tiers run the batch-level set plus the delay identity, live.
        setup = build_experiment(
            "logistic_regression", seed=2, batch_interval=4.0,
            num_executors=2, queue_max_length=2, fidelity=fidelity,
        )
        engine = InvariantEngine(setup.context)
        ctx = setup.context
        run_fixed_configuration(ctx, batches=8, warmup=1)
        ctx.change_configuration(batch_interval=9.0, num_executors=12)
        ctx.inject_executor_failure()
        run_fixed_configuration(ctx, batches=8, warmup=1)
        assert ctx.queue.total_dropped > 0
        assert engine.batches_checked == len(ctx.listener.metrics)
        assert engine.checks_run > 6 * engine.batches_checked
        assert engine.ok, [v.render() for v in engine.violations]

    def test_detach_stops_checking(self):
        setup = build_experiment(
            "logistic_regression", seed=3, fidelity="vectorized"
        )
        engine = InvariantEngine(setup.context)
        setup.context.advance_batches(3)
        engine.detach()
        checks = engine.checks_run
        setup.context.advance_batches(3)
        assert checks > 0
        assert engine.checks_run == checks

    def test_violations_counter_reaches_registry(self):
        from repro.obs.tracer import Telemetry

        setup = build_experiment(
            "logistic_regression", seed=3, telemetry=Telemetry(enabled=True)
        )
        engine = InvariantEngine(setup.context)
        run_fixed_configuration(setup.context, batches=4, warmup=1)
        counter = setup.telemetry.metrics.get("repro_check_checks_total")
        assert counter is not None
        assert counter.value == engine.checks_run
        assert engine.checks_run > 0


class TestTamperDetection:
    def test_consumer_undercount_breaks_conservation(self):
        setup = build_experiment("logistic_regression", seed=3)
        engine = InvariantEngine(setup.context)
        run_fixed_configuration(setup.context, batches=3, warmup=1)
        assert engine.ok
        setup.context.receiver.consumer.total_consumed += 1000  # tamper
        setup.context.advance_one_batch()
        assert not engine.ok
        assert any(
            v.invariant == "record-conservation" for v in engine.violations
        )

    def test_queue_ledger_tamper_detected(self):
        setup = build_experiment("logistic_regression", seed=3)
        engine = InvariantEngine(setup.context)
        run_fixed_configuration(setup.context, batches=3, warmup=1)
        setup.context.queue.total_enqueued += 1  # tamper
        setup.context.advance_one_batch()
        assert any(
            v.invariant == "queue-accounting" for v in engine.violations
        )

    @pytest.mark.parametrize("fidelity", FAST_FIDELITIES)
    def test_fast_queue_ledger_tamper_detected(self, fidelity):
        """Every tier forms batches into the one batch queue, so its
        ledger is checked on the fast tiers too."""
        setup = build_experiment(
            "logistic_regression", seed=3, fidelity=fidelity
        )
        engine = InvariantEngine(setup.context)
        run_fixed_configuration(setup.context, batches=3, warmup=1)
        assert engine.ok
        setup.context.queue.total_dequeued += 1  # tamper
        setup.context.advance_one_batch()
        assert not engine.ok
        assert {v.invariant for v in engine.violations} == {
            "queue-accounting"
        }

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_clock_regression_detected(self, fidelity):
        setup = build_experiment(
            "logistic_regression", seed=3, fidelity=fidelity
        )
        engine = InvariantEngine(setup.context)
        run_fixed_configuration(setup.context, batches=3, warmup=1)
        engine.on_boundary(0.5)  # boundary that moved backwards
        assert any(
            v.invariant == "clock-monotonicity" for v in engine.violations
        )

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_unexplained_slack_detected(self, fidelity):
        # A batch starting later than both its close and the previous
        # job's end, with no pause injected, is stolen wait time.
        setup = build_experiment(
            "logistic_regression", seed=3, fidelity=fidelity
        )
        engine = InvariantEngine(setup.context)
        run_fixed_configuration(setup.context, batches=3, warmup=1)
        assert engine.ok
        last = setup.context.listener.metrics.last
        phantom = BatchInfo(
            batch_index=last.batch_index + 1,
            batch_time=last.processing_end + 1.0,
            interval=10.0,
            records=10,
            num_executors=4,
            mean_arrival_time=last.processing_end + 0.5,
            processing_start=last.processing_end + 500.0,  # unexplained
            processing_end=last.processing_end + 501.0,
        )
        engine.on_batch(phantom)
        assert any(
            v.invariant == "queue-accounting" for v in engine.violations
        )

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_off_midpoint_arrival_breaks_delay_identity(self, fidelity):
        # Only the fast tiers promise interval-midpoint arrivals; the
        # exact tier's Kafka arrivals make no such claim.
        setup = build_experiment(
            "logistic_regression", seed=3, fidelity=fidelity
        )
        engine = InvariantEngine(setup.context)
        run_fixed_configuration(setup.context, batches=3, warmup=1)
        assert engine.ok
        last = setup.context.listener.metrics.last
        t0 = last.processing_end + 1.0
        skewed = BatchInfo(
            batch_index=last.batch_index + 1,
            batch_time=t0,
            interval=10.0,
            records=10,
            num_executors=4,
            mean_arrival_time=t0 - 1.0,  # midpoint would be t0 - 5
            processing_start=t0,
            processing_end=t0 + 2.0,
        )
        engine.on_batch(skewed)
        caught = [
            v for v in engine.violations if v.invariant == "delay-identity"
        ]
        assert bool(caught) == (fidelity in FAST_FIDELITIES)

    def test_busy_time_overrun_detected(self):
        setup = build_experiment("logistic_regression", seed=3)
        engine = InvariantEngine(setup.context)
        run_fixed_configuration(setup.context, batches=3, warmup=1)
        assert engine.ok
        last = setup.context.listener.metrics.last
        spec = TaskSpec(task_id=0, records=1, compute_cost=1.0, io_cost=0.0)
        # A 1-second job claiming 3 executor-seconds of busy time on a
        # single 1-core executor.
        t0 = last.processing_end
        forged = JobRun(
            job_id=last.batch_index + 1, start=t0, finish=t0 + 1.0,
            executors_used=1,
            task_runs=[
                TaskRun(spec=spec, executor_id=0, start=t0, finish=t0 + 3.0)
            ],
        )
        setup.context.engine.last_runs.append(forged)
        info = BatchInfo(
            batch_index=last.batch_index + 1,
            batch_time=t0,
            interval=10.0,
            records=1,
            num_executors=1,
            mean_arrival_time=t0,
            processing_start=t0,
            processing_end=t0 + 1.0,
        )
        engine.on_batch(info)
        assert any(v.invariant == "busy-time" for v in engine.violations)

    def test_violation_recording_is_capped(self):
        setup = build_experiment("logistic_regression", seed=3)
        class TwoSlotEngine(InvariantEngine):
            MAX_RECORDED = 2

        engine = TwoSlotEngine(setup.context)
        for t in (5.0, 4.0, 3.0, 2.0):
            engine.on_boundary(t)
        assert engine.total_violations == 3  # first call sets the baseline
        assert len(engine.violations) == 2


class TestViolationStructure:
    def test_violation_serializes(self):
        setup = build_experiment("logistic_regression", seed=3)
        engine = InvariantEngine(setup.context)
        engine.on_boundary(10.0)
        engine.on_boundary(1.0)
        v = engine.violations[0]
        d = v.to_dict()
        assert d["invariant"] == "clock-monotonicity"
        assert "previous" in d["details"]
        assert "t=1.000s" in v.render()

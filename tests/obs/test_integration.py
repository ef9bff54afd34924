"""End-to-end telemetry: a traced NoStop run satisfies the ISSUE checks.

* every completed batch trace carries ingest / queue / schedule / execute
  child spans, and schedule+execute durations tile the batch's reported
  processing time;
* traces are deterministic under a fixed seed;
* the SPSA audit trail replays against the optimizer's own arithmetic;
* chaos fault firings join to traces by event id.
"""

import json
import os

import pytest

from repro.analysis.chaos import join_faults_to_traces
from repro.chaos.engine import ChaosEngine
from repro.chaos.events import AtTime, FaultEvent, FaultSchedule
from repro.chaos.injectors import BrokerOutage, ExecutorCrash
from repro.experiments.common import build_experiment, make_controller
from repro.obs import Telemetry, Tracer
from repro.obs.exporters import prometheus_text, spans_to_jsonl

from .helpers import validate_prometheus_text

ROUNDS = 6


def traced_run(seed=0, rounds=ROUNDS):
    telemetry = Telemetry(enabled=True)
    setup = build_experiment("wordcount", seed=seed, telemetry=telemetry)
    controller = make_controller(setup, seed=seed)
    controller.run(rounds)
    return telemetry, setup, controller


def children_of(tracer, root):
    return [
        s for s in tracer.trace(root.trace_id) if s.parent_id == root.span_id
    ]


def processed_roots(tracer):
    """Finished batch traces that ran to completion (not shed by the
    bounded queue, whose traces close early with a ``dropped`` mark)."""
    return [
        r for r in tracer.roots()
        if r.finished and not r.attributes.get("dropped")
    ]


@pytest.fixture(scope="module")
def run():
    return traced_run()


class TestBatchLifecycle:
    def test_every_completed_batch_has_lifecycle_spans(self, run):
        telemetry, _, _ = run
        tracer = telemetry.tracer
        completed = processed_roots(tracer)
        assert len(completed) > 10
        for root in completed:
            names = {s.name for s in children_of(tracer, root)}
            assert {"ingest", "queue", "schedule", "execute"} <= names, (
                root.trace_id, names
            )

    def test_shed_batches_are_marked_dropped(self, run):
        telemetry, _, _ = run
        shed = [
            r for r in telemetry.tracer.roots()
            if r.finished and r.attributes.get("dropped")
        ]
        for root in shed:
            assert any(e.name == "dropped" for e in root.events)

    def test_schedule_and_execute_tile_processing_time(self, run):
        telemetry, _, _ = run
        tracer = telemetry.tracer
        checked = 0
        for root in tracer.roots():
            if not root.finished or "processing_time" not in root.attributes:
                continue
            work = [
                s for s in children_of(tracer, root)
                if s.name in ("schedule", "execute")
            ]
            total = sum(s.duration for s in work)
            assert total == pytest.approx(
                root.attributes["processing_time"], abs=1e-6
            ), root.trace_id
            checked += 1
        assert checked > 10

    def test_children_nest_inside_the_root_interval(self, run):
        telemetry, _, _ = run
        tracer = telemetry.tracer
        for root in processed_roots(tracer):
            for child in children_of(tracer, root):
                assert child.start >= root.start - 1e-9
                assert child.end is not None
                assert child.end <= root.end + 1e-9

    def test_queue_follows_ingest(self, run):
        telemetry, _, _ = run
        tracer = telemetry.tracer
        for root in processed_roots(tracer):
            kids = {s.name: s for s in children_of(tracer, root)}
            assert kids["queue"].start >= kids["ingest"].end - 1e-9


class TestDeterminism:
    def test_same_seed_identical_trace_jsonl(self):
        a, _, _ = traced_run(seed=3, rounds=4)
        b, _, _ = traced_run(seed=3, rounds=4)
        assert spans_to_jsonl(a.tracer.spans) == spans_to_jsonl(b.tracer.spans)
        assert a.audit.to_jsonl() == b.audit.to_jsonl()

    def test_different_seed_diverges(self):
        a, _, _ = traced_run(seed=3, rounds=4)
        b, _, _ = traced_run(seed=4, rounds=4)
        assert spans_to_jsonl(a.tracer.spans) != spans_to_jsonl(b.tracer.spans)


class TestAuditAgainstOptimizer:
    def test_one_decision_per_optimize_round(self, run):
        telemetry, _, controller = run
        optimize = [
            r for r in controller.report.rounds if r.phase == "optimize"
        ]
        assert len(telemetry.audit.decisions) == len(optimize)

    def test_replay_matches_optimizer_steps(self, run):
        telemetry, setup, controller = run
        assert telemetry.audit.replay(box=setup.scaler.scaled) == []
        # Cross-check against the optimizer's own history records.
        unguarded = [d for d in telemetry.audit.decisions if not d.guarded]
        assert len(unguarded) == len(controller.tuner.history)
        for d, it in zip(unguarded, controller.tuner.history):
            assert d.k == it.k
            assert d.y_plus == pytest.approx(it.y_plus)
            assert d.theta_next == pytest.approx(tuple(it.theta_next))

    def test_replay_survives_jsonl_round_trip(self, run):
        telemetry, setup, _ = run
        lines = telemetry.audit.to_jsonl().splitlines()
        decisions = [
            e for e in map(json.loads, lines) if e["type"] == "decision"
        ]
        assert decisions == [d.to_dict() for d in telemetry.audit.decisions]
        assert telemetry.audit.replay(box=setup.scaler.scaled) == []


class TestMetricsEndToEnd:
    def test_prometheus_snapshot_valid(self, run):
        telemetry, _, _ = run
        text = prometheus_text(telemetry.metrics)
        assert validate_prometheus_text(text) == []
        assert "repro_streaming_batches_total" in text
        assert "repro_engine_jobs_total" in text
        assert "repro_kafka_records_consumed_total" in text
        assert "repro_cluster_executors" in text

    def test_batch_counter_matches_listener(self, run):
        telemetry, setup, _ = run
        batches = telemetry.metrics.get("repro_streaming_batches_total")
        assert batches.value == len(setup.context.listener.metrics.batches)


class TestChaosJoin:
    def test_faults_join_to_traces_by_event_id(self):
        telemetry = Telemetry(enabled=True)
        setup = build_experiment("wordcount", seed=1, telemetry=telemetry)
        schedule = FaultSchedule([
            FaultEvent(name="crash", trigger=AtTime(25.0),
                       injector=ExecutorCrash()),
            FaultEvent(name="broker", trigger=AtTime(45.0),
                       injector=BrokerOutage(), duration=15.0),
        ])
        engine = ChaosEngine(setup.context, schedule, seed=3)
        for _ in range(10):
            setup.context.advance_one_batch()
        engine.finish()

        joins = join_faults_to_traces(telemetry.tracer.spans)
        assert [j.event_id for j in joins] == [
            r.event_id for r in engine.records
        ]
        assert [j.name for j in joins] == ["crash", "broker"]
        # Each join names a real trace whose span covers the firing time.
        for j, record in zip(joins, engine.records):
            trace_spans = telemetry.tracer.trace(j.trace_id)
            assert trace_spans, j
            assert j.fired_at == record.fired_at
        # The timed fault's recovery landed on a (possibly later) trace.
        assert joins[1].recover_trace_id is not None

    def test_event_ids_are_sequential(self):
        telemetry = Telemetry(enabled=True)
        setup = build_experiment("wordcount", seed=2, telemetry=telemetry)
        schedule = FaultSchedule([
            FaultEvent(name="crash", trigger=AtTime(25.0),
                       injector=ExecutorCrash()),
        ])
        engine = ChaosEngine(setup.context, schedule, seed=0)
        for _ in range(5):
            setup.context.advance_one_batch()
        assert [r.event_id for r in engine.records] == list(
            range(1, len(engine.records) + 1)
        )


_TRACE_FORCED = bool(os.environ.get("REPRO_TRACE"))


class TestDisabledPath:
    @staticmethod
    def _assert_emits_nothing(setup):
        controller = make_controller(setup, seed=0)
        controller.run(3)
        assert setup.context.telemetry.tracer.spans == []
        assert len(setup.context.telemetry.audit) == 0
        assert list(setup.context.telemetry.metrics.collect()) == []

    @pytest.mark.skipif(
        _TRACE_FORCED, reason="REPRO_TRACE forces tracing on default runs"
    )
    def test_default_run_emits_nothing(self):
        self._assert_emits_nothing(build_experiment("wordcount", seed=0))

    def test_explicitly_disabled_run_emits_nothing(self):
        # REPRO_TRACE forces tracing only on runs that leave it unset.
        setup = build_experiment(
            "wordcount", seed=0, telemetry=Telemetry(enabled=False)
        )
        self._assert_emits_nothing(setup)

    def test_disabled_run_matches_untraced_results(self):
        plain = make_controller(build_experiment("wordcount", seed=5), seed=5)
        plain_report = plain.run(4)
        traced_tel = Telemetry(enabled=True)
        traced_setup = build_experiment("wordcount", seed=5,
                                        telemetry=traced_tel)
        traced = make_controller(traced_setup, seed=5)
        traced_report = traced.run(4)
        # Telemetry is pure observation: identical trajectories either way.
        assert [r.batch_interval for r in plain_report.rounds] == [
            r.batch_interval for r in traced_report.rounds
        ]
        assert [r.num_executors for r in plain_report.rounds] == [
            r.num_executors for r in traced_report.rounds
        ]


class TestFaultJoinOrphans:
    """Fault events with no matching trace span are skipped and counted,
    never raised (the span may have been evicted from the tracer's ring,
    or tracing was off when the fault fired)."""

    @staticmethod
    def _spans_with_one_inject():
        tracer = Tracer()
        root = tracer.start_trace("batch", "batch-000000", 0.0)
        root.add_event("chaos.inject", 3.0, event_id=1,
                       fault="crash", kind="executor")
        root.finish(10.0)
        return tracer.spans

    def test_missing_event_counts_as_orphan(self):
        class Record:
            def __init__(self, event_id):
                self.event_id = event_id

        result = join_faults_to_traces(
            self._spans_with_one_inject(),
            records=[Record(1), Record(2)],  # event 2's span was evicted
        )
        assert len(result) == 1
        assert result[0].event_id == 1
        assert result.orphans == 1

    def test_malformed_event_id_counts_without_records(self):
        tracer = Tracer()
        root = tracer.start_trace("batch", "batch-000000", 0.0)
        root.add_event("chaos.inject", 3.0, event_id="not-a-number",
                       fault="crash", kind="executor")
        root.finish(10.0)
        result = join_faults_to_traces(tracer.spans)
        assert len(result) == 0
        assert result.orphans == 1

    def test_result_keeps_sequence_semantics(self):
        result = join_faults_to_traces(self._spans_with_one_inject())
        assert list(result) == [result[0]]
        assert len(result) == 1
        assert "1 joins, 0 orphans" in repr(result)

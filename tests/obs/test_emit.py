"""Batched emission pipeline: bounded queue, sim-time flushes, sinks."""

import json

import pytest

from repro.obs import (
    EmissionBatcher,
    JsonlSink,
    MetricsRegistry,
    metric_events,
)
from repro.obs.catalog import _spec, instrument

from .helpers import parse_jsonl_events


class RecordingSink:
    def __init__(self):
        self.batches = []
        self.closed = False

    def __call__(self, events):
        self.batches.append(list(events))

    def close(self):
        self.closed = True


class TwoSlotBatcher(EmissionBatcher):
    """A batcher whose queue holds two events."""

    MAX_PENDING = 2


class TestBatching:
    def test_events_batch_until_interval_elapses(self):
        sink = RecordingSink()
        b = EmissionBatcher(sink, flush_interval=10.0)
        b.emit({"n": 1}, now=0.0)
        b.emit({"n": 2}, now=5.0)
        assert sink.batches == []
        b.emit({"n": 3}, now=10.0)
        # The elapsed-interval flush ships the first two; the third event
        # lands in the next window.
        assert sink.batches == [[{"n": 1}, {"n": 2}]]
        assert b.pending == 1

    def test_flush_clock_anchors_on_first_activity(self):
        sink = RecordingSink()
        b = EmissionBatcher(sink, flush_interval=10.0)
        b.emit({"n": 1}, now=100.0)
        b.emit({"n": 2}, now=105.0)
        assert sink.batches == []
        b.maybe_flush(now=110.0)
        assert sink.batches == [[{"n": 1}, {"n": 2}]]

    def test_overflow_drops_newest_with_accounting(self):
        reg = MetricsRegistry()
        sink = RecordingSink()
        b = TwoSlotBatcher(sink, registry=reg, flush_interval=1000.0)
        assert b.emit({"n": 1}, now=0.0)
        assert b.emit({"n": 2}, now=0.0)
        assert not b.emit({"n": 3}, now=0.0)
        assert b.dropped == 1
        assert b.enqueued == 2
        assert reg.get("repro_obs_emit_dropped_total").value == 1.0
        b.flush()
        # The dropped event never reaches the sink.
        assert sink.batches == [[{"n": 1}, {"n": 2}]]

    def test_close_flushes_tail_and_closes_sink(self):
        sink = RecordingSink()
        b = EmissionBatcher(sink, flush_interval=1000.0)
        b.emit({"n": 1}, now=0.0)
        b.close()
        assert sink.batches == [[{"n": 1}]]
        assert sink.closed
        # Idempotent; post-close emits are refused.
        b.close()
        assert not b.emit({"n": 2}, now=1.0)
        assert sink.batches == [[{"n": 1}]]

    def test_accounting_metrics_track_flushes(self):
        reg = MetricsRegistry()
        b = EmissionBatcher(RecordingSink(), registry=reg,
                            flush_interval=5.0)
        b.emit({"n": 1}, now=0.0)
        b.emit({"n": 2}, now=6.0)  # flushes the first
        b.close()                  # flushes the second
        assert reg.get("repro_obs_emit_enqueued_total").value == 2.0
        assert reg.get("repro_obs_emit_flushed_total").value == 2.0
        assert reg.get("repro_obs_emit_flushes_total").value == 2.0
        assert b.flushes == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            EmissionBatcher(RecordingSink(), flush_interval=0.0)


class TestJsonlSink:
    def test_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlSink(path)
        b = EmissionBatcher(sink, flush_interval=1.0)
        b.emit({"n": 1, "z": "a"}, now=0.0)
        b.emit({"n": 2}, now=2.0)
        b.close()
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert parse_jsonl_events(text) == [{"n": 1, "z": "a"}, {"n": 2}]
        assert sink.lines_written == 2

    def test_lines_have_sorted_keys(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        b = EmissionBatcher(JsonlSink(path))
        b.emit({"zebra": 1, "alpha": 2}, now=0.0)
        b.close()
        with open(path, encoding="utf-8") as fh:
            line = fh.readline().strip()
        assert line == json.dumps({"alpha": 2, "zebra": 1}, sort_keys=True)

    def test_malformed_line_reports_position(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_jsonl_events('{"ok": 1}\nnot json')


class TestMetricEvents:
    def test_flat_and_family_samples(self):
        reg = MetricsRegistry()
        instrument(reg, "repro_nostop_rounds_total").inc(4)
        fam = instrument(reg, "repro_chaos_injections_total")
        fam.labels(kind="crash").inc()
        fam.labels(kind="skew").inc(2)
        events = metric_events(reg, time=42.0)
        by_key = {
            (e["name"], tuple(sorted(e["labels"].items()))): e
            for e in events
        }
        flat = by_key[("repro_nostop_rounds_total", ())]
        assert flat["value"] == 4.0 and flat["time"] == 42.0
        crash = by_key[(
            "repro_chaos_injections_total", (("kind", "crash"),)
        )]
        assert crash["value"] == 1.0

    def test_histogram_events_carry_buckets(self):
        reg = MetricsRegistry()
        h = reg.instrument(_spec(
            "repro_x_y_seconds", "histogram", "h",
            unit="seconds", buckets=(1.0, 5.0),
        ))
        h.observe(0.5)
        h.observe(3.0)
        (event,) = metric_events(reg)
        assert event["count"] == 2
        assert event["sum"] == 3.5
        assert event["buckets"] == {"1.0": 1, "5.0": 2}

    def test_snapshot_deterministic(self):
        reg = MetricsRegistry()
        fam = instrument(reg, "repro_chaos_injections_total")
        for kind in ("zeta", "alpha"):
            fam.labels(kind=kind).inc()
        assert metric_events(reg) == metric_events(reg)


class TestEmitterOnTelemetry:
    def test_listener_ships_batch_events_through_emitter(self):
        from repro.obs import Telemetry
        from repro.streaming.listener import StreamingListener
        from repro.streaming.metrics import BatchInfo

        telemetry = Telemetry(enabled=True)
        sink = RecordingSink()
        telemetry.attach_emitter(
            EmissionBatcher(sink, registry=telemetry.metrics,
                            flush_interval=30.0)
        )
        listener = StreamingListener(telemetry=telemetry)
        for i in range(5):
            t = 10.0 * (i + 1)
            listener.on_batch_completed(BatchInfo(
                batch_index=i, batch_time=t, interval=10.0,
                records=100, num_executors=4,
                mean_arrival_time=t - 5.0,
                processing_start=t, processing_end=t + 5.0,
            ))
        telemetry.close_emitter()
        shipped = [e for batch in sink.batches for e in batch]
        assert len(shipped) == 5
        assert all(e["event"] == "batch_completed" for e in shipped)
        # Batched: fewer sink calls than events.
        assert len(sink.batches) < 5

    def test_disabled_telemetry_refuses_emitter(self):
        from repro.obs import NOOP_TELEMETRY

        with pytest.raises(ValueError):
            NOOP_TELEMETRY.attach_emitter(EmissionBatcher(RecordingSink()))

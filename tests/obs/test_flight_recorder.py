"""Flight-recorder semantics: ring eviction, deterministic sampling,
tail-based retention, and the partial/late-finish accounting."""

import hashlib

import pytest

from repro.obs import EmissionBatcher, MetricsRegistry, Telemetry
from repro.obs.tracer import (
    EVICT_RING,
    EVICT_SAMPLED_OUT,
    RETAIN_CHAOS,
    RETAIN_SAMPLED,
    Tracer,
)


def sampled_in(trace_id: str, rate: int) -> bool:
    digest = hashlib.sha256(trace_id.encode("utf-8")).hexdigest()
    return int(digest, 16) % rate == 0


def make_trace(tracer, trace_id, start, with_children=True, finish=True):
    """One batch-shaped trace: root plus an optional child pair."""
    root = tracer.start_trace("batch", trace_id=trace_id, start=start)
    if with_children:
        sched = tracer.start_span("schedule", root, start=start)
        sched.finish(start + 0.1)
        ex = tracer.start_span("execute", root, start=start + 0.1)
        ex.finish(start + 0.9)
    if finish:
        root.finish(start + 1.0)
    return root


class TestRing:
    def test_eviction_is_accounted_and_oldest_first(self):
        tracer = Tracer(max_spans=3)
        spans = []
        for i in range(5):
            root = tracer.start_trace("batch", trace_id=f"t{i}", start=float(i))
            root.finish(i + 0.5)
            spans.append(root)
        assert tracer.dropped_spans == 2
        assert [s.trace_id for s in tracer.spans] == ["t2", "t3", "t4"]

    def test_evicted_span_is_unindexed(self):
        tracer = Tracer(max_spans=2)
        first = tracer.start_trace("batch", trace_id="t0", start=0.0)
        ctx = first.context
        first.finish(0.5)
        tracer.start_trace("batch", trace_id="t1", start=1.0)
        tracer.start_trace("batch", trace_id="t2", start=2.0)
        assert tracer.span_for(ctx).name == "noop"
        assert "t0" not in tracer.trace_ids()

    def test_ring_consumed_open_trace_finalizes_as_ring_evicted(self):
        tracer = Tracer(max_spans=1)
        tracer.start_trace("batch", trace_id="t0", start=0.0)
        # The next root evicts t0's (unfinished) root, the only live span.
        tracer.start_trace("batch", trace_id="t1", start=1.0)
        tracer.start_trace("batch", trace_id="t2", start=2.0)
        assert tracer.evicted_by_reason.get(EVICT_RING, 0) >= 1
        assert tracer.dropped_unfinished >= 1

    def test_max_spans_validation(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)
        with pytest.raises(ValueError):
            Tracer(sample_rate=0)


class TestClear:
    def test_clear_resets_counters_and_index(self):
        tracer = Tracer(max_spans=2, sample_rate=2)
        for i in range(4):
            make_trace(tracer, f"t{i}", float(i), with_children=False)
        tracer.finalize_all()
        assert tracer.dropped_spans or tracer.evicted_traces
        tracer.clear()
        assert tracer.spans == []
        assert tracer.dropped_spans == 0
        assert tracer.dropped_unfinished == 0
        assert tracer.late_finishes == 0
        assert tracer.sampled_traces == 0
        assert tracer.retained_traces == 0
        assert tracer.evicted_traces == 0
        assert tracer.retained_by_reason == {}
        assert tracer.evicted_by_reason == {}
        assert tracer._interest.windows == []
        # Span ids restart: the index holds no stale entries.
        root = tracer.start_trace("batch", trace_id="fresh", start=0.0)
        assert root.span_id == 1
        assert tracer.span_for(root.context) is root


class TestSampling:
    def test_sampling_is_deterministic_across_tracers(self):
        ids = [f"batch-{i:06d}" for i in range(64)]
        kept = []
        for _ in range(2):
            tracer = Tracer(sample_rate=4, retain_interesting=False)
            for i, tid in enumerate(ids):
                make_trace(tracer, tid, float(i), with_children=False)
            tracer.finalize_all()
            kept.append(tracer.trace_ids())
        assert kept[0] == kept[1]
        assert kept[0] == [t for t in ids if sampled_in(t, 4)]

    def test_sampled_out_traces_are_discarded_wholesale(self):
        tracer = Tracer(sample_rate=4, retain_interesting=False)
        ids = [f"batch-{i:06d}" for i in range(32)]
        for i, tid in enumerate(ids):
            make_trace(tracer, tid, float(i))
        tracer.finalize_all()
        expected_out = sum(1 for t in ids if not sampled_in(t, 4))
        assert tracer.evicted_by_reason[EVICT_SAMPLED_OUT] == expected_out
        assert tracer.retained_by_reason[RETAIN_SAMPLED] == len(ids) - expected_out
        # No spans of a discarded trace linger anywhere.
        live = {s.trace_id for s in tracer.spans}
        assert live == {t for t in ids if sampled_in(t, 4)}

    def test_rate_one_keeps_everything(self):
        tracer = Tracer(sample_rate=1)
        for i in range(8):
            make_trace(tracer, f"t{i}", float(i), with_children=False)
        tracer.finalize_all()
        assert tracer.retained_traces == 8
        assert tracer.evicted_traces == 0


class TestTailRetention:
    def _sampled_out_id(self, rate=16):
        tid = next(
            f"batch-{i:06d}" for i in range(1000)
            if not sampled_in(f"batch-{i:06d}", rate)
        )
        return tid

    def test_interest_window_overrides_sampling(self):
        tid = self._sampled_out_id()
        tracer = Tracer(sample_rate=16)
        make_trace(tracer, tid, 10.0)
        tracer.note_interest(10.2, 10.4, "slo")
        tracer.finalize_all()
        assert tracer.retained_by_reason == {"slo": 1}
        assert tracer.trace_ids() == [tid]

    def test_non_overlapping_window_does_not_retain(self):
        tid = self._sampled_out_id()
        tracer = Tracer(sample_rate=16)
        make_trace(tracer, tid, 10.0)
        tracer.note_interest(50.0, 60.0, "slo")
        tracer.finalize_all()
        assert tracer.evicted_by_reason == {EVICT_SAMPLED_OUT: 1}

    def test_reversed_window_is_normalized(self):
        tid = self._sampled_out_id()
        tracer = Tracer(sample_rate=16)
        make_trace(tracer, tid, 10.0)
        tracer.note_interest(10.4, 10.2, "anomaly")
        tracer.finalize_all()
        assert tracer.retained_by_reason == {"anomaly": 1}

    def test_chaos_span_event_retains(self):
        tid = self._sampled_out_id()
        tracer = Tracer(sample_rate=16)
        root = tracer.start_trace("batch", trace_id=tid, start=0.0)
        root.add_event("chaos.inject", 0.3, event_id=1, fault="crash")
        root.finish(1.0)
        tracer.finalize_all()
        assert tracer.retained_by_reason == {RETAIN_CHAOS: 1}

    def test_retain_interesting_off_disables_tail_retention(self):
        tid = self._sampled_out_id()
        tracer = Tracer(sample_rate=16, retain_interesting=False)
        root = tracer.start_trace("batch", trace_id=tid, start=0.0)
        root.add_event("chaos.inject", 0.3)
        root.finish(1.0)
        tracer.note_interest(0.0, 1.0, "slo")
        tracer.finalize_all()
        assert tracer.evicted_by_reason == {EVICT_SAMPLED_OUT: 1}


class TestPartialAndLateFinish:
    def test_evicting_unfinished_span_marks_trace_partial(self):
        tracer = Tracer(max_spans=2)
        root = tracer.start_trace("batch", trace_id="t0", start=0.0)
        child = tracer.start_span("execute", root, start=0.1)
        ctx = child.context
        # Two more spans push the unfinished root and child out.
        tracer.start_trace("batch", trace_id="t1", start=1.0)
        tracer.start_trace("batch", trace_id="t2", start=2.0)
        assert tracer.dropped_unfinished == 2
        # The late finish is counted, not swallowed silently.
        tracer.finish_span(ctx, 0.9)
        assert tracer.late_finishes == 1

    def test_retained_partial_trace_carries_the_partial_attribute(self):
        tracer = Tracer(max_spans=2)
        root = tracer.start_trace("batch", trace_id="t0", start=0.0)
        tracer.start_span("execute", root, start=0.1)  # never finished
        # Adding one more span evicts the root (oldest), marking t0
        # partial; then finish the trace via a live reference.
        extra = tracer.start_span("schedule", root, start=0.2)
        extra.finish(0.3)
        root.finish(1.0)
        tracer.finalize_all()
        assert root.attributes["partial"] is True

    def test_finish_span_handles_none_and_disabled(self):
        tracer = Tracer()
        tracer.finish_span(None, 1.0)
        assert tracer.late_finishes == 0
        disabled = Tracer(enabled=False)
        root = disabled.start_trace("batch", trace_id="x", start=0.0)
        disabled.finish_span(None, 1.0)
        assert disabled.late_finishes == 0
        assert root.name == "noop"


class TestMetricsAndEmission:
    def test_cataloged_counters_track_retention(self):
        registry = MetricsRegistry()
        tracer = Tracer(sample_rate=4, registry=registry)
        ids = [f"batch-{i:06d}" for i in range(16)]
        for i, tid in enumerate(ids):
            make_trace(tracer, tid, float(i), with_children=False)
        tracer.finalize_all()
        kept = sum(1 for t in ids if sampled_in(t, 4))
        sampled = registry.get("repro_obs_trace_sampled_total")
        retained = registry.get("repro_obs_trace_retained_total")
        evicted = registry.get("repro_obs_trace_evicted_total")
        assert sampled.value == kept
        assert retained.labels(reason=RETAIN_SAMPLED).value == kept
        assert evicted.labels(reason=EVICT_SAMPLED_OUT).value == len(ids) - kept

    def test_span_drop_counter_splits_reasons(self):
        registry = MetricsRegistry()
        tracer = Tracer(max_spans=2, registry=registry)
        root = tracer.start_trace("batch", trace_id="t0", start=0.0)
        root.finish(0.5)
        tracer.start_trace("batch", trace_id="t1", start=1.0)
        tracer.start_trace("batch", trace_id="t2", start=2.0)
        drops = registry.get("repro_obs_trace_spans_dropped_total")
        total = sum(child.value for _, child in drops.children())
        assert total == tracer.dropped_spans

    def test_on_retained_ships_summaries_through_the_batcher(self):
        telemetry = Telemetry(enabled=True)
        batches = []
        batcher = EmissionBatcher(batches.extend, registry=telemetry.metrics)
        telemetry.attach_emitter(batcher)
        tracer = telemetry.tracer
        make_trace(tracer, "batch-000001", 0.0)
        make_trace(tracer, "batch-000002", 1.0)
        tracer.finalize_all()
        telemetry.close_emitter()
        events = [e for e in batches if e.get("event") == "trace_retained"]
        assert [e["traceId"] for e in events] == [
            "batch-000001", "batch-000002",
        ]
        assert all(e["reason"] == RETAIN_SAMPLED for e in events)
        assert all("schedule" in e and "execute" in e for e in events)

    def test_finalize_all_is_idempotent(self):
        tracer = Tracer()
        make_trace(tracer, "t0", 0.0)
        tracer.finalize_all()
        before = tracer.retained_traces
        tracer.finalize_all()
        assert tracer.retained_traces == before

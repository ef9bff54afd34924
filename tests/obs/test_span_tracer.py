"""Span model and tracer invariants: nesting, propagation, no-op path."""

import pytest

from repro.obs import NOOP_SPAN, Span, TraceContext, Tracer


class TestSpanBasics:
    def test_duration_and_finish(self):
        s = Span(trace_id="t", span_id=1, parent_id=None, name="x", start=2.0)
        assert not s.finished
        assert s.duration == 0.0
        s.finish(5.5)
        assert s.finished
        assert s.duration == pytest.approx(3.5)

    def test_finish_before_start_rejected(self):
        s = Span(trace_id="t", span_id=1, parent_id=None, name="x", start=2.0)
        with pytest.raises(ValueError, match="cannot end"):
            s.finish(1.0)

    def test_context_round_trips_identity(self):
        s = Span(trace_id="t", span_id=7, parent_id=3, name="x", start=0.0)
        ctx = s.context
        assert ctx == TraceContext(trace_id="t", span_id=7)

    def test_dict_round_trip(self):
        s = Span(trace_id="t", span_id=1, parent_id=None, name="x", start=2.0)
        s.set_attribute("records", 10)
        s.add_event("chaos.inject", 2.5, event_id=1, fault="crash")
        s.finish(4.0)
        back = Span.from_dict(s.to_dict())
        assert back == s

    def test_unfinished_span_round_trips_none_end(self):
        s = Span(trace_id="t", span_id=1, parent_id=None, name="x", start=2.0)
        back = Span.from_dict(s.to_dict())
        assert back.end is None


class TestNesting:
    def test_children_carry_parent_identity(self):
        tracer = Tracer()
        root = tracer.start_trace("batch", "batch-0", 0.0)
        child = tracer.start_span("ingest", root, 0.0)
        grandchild = tracer.start_span("ingest.kafka", child, 0.0)
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id
        assert grandchild.parent_id == child.span_id
        spans = tracer.trace(root.trace_id)
        assert [s for s in spans if s.parent_id == root.span_id] == [child]
        assert [s for s in spans if s.parent_id == child.span_id] == [
            grandchild
        ]
        assert tracer.roots() == [root]

    def test_parent_via_context(self):
        tracer = Tracer()
        root = tracer.start_trace("batch", "batch-0", 0.0)
        child = tracer.start_span("queue", root.context, 1.0)
        assert child.parent_id == root.span_id
        assert tracer.span_for(root.context) is root

    def test_span_ids_monotonic(self):
        tracer = Tracer()
        ids = [
            tracer.start_trace("batch", f"batch-{i}", float(i)).span_id
            for i in range(5)
        ]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_trace_groups_spans(self):
        tracer = Tracer()
        r0 = tracer.start_trace("batch", "batch-0", 0.0)
        tracer.start_span("ingest", r0, 0.0)
        r1 = tracer.start_trace("batch", "batch-1", 1.0)
        tracer.start_span("ingest", r1, 1.0)
        assert tracer.trace_ids() == ["batch-0", "batch-1"]
        assert [s.name for s in tracer.trace("batch-0")] == ["batch", "ingest"]


class TestNoopPath:
    def test_disabled_tracer_emits_nothing(self):
        tracer = Tracer(enabled=False)
        root = tracer.start_trace("batch", "batch-0", 0.0)
        assert root is NOOP_SPAN
        child = tracer.start_span("ingest", root, 0.0)
        assert child is NOOP_SPAN
        root.set_attribute("k", 1)
        root.add_event("e", 0.0)
        root.finish(1.0)
        assert tracer.spans == []

    def test_none_parent_yields_noop(self):
        tracer = Tracer()
        assert tracer.start_span("x", None, 0.0) is NOOP_SPAN
        assert tracer.span_for(None) is NOOP_SPAN

    def test_ring_bound_evicts_oldest(self):
        tracer = Tracer(max_spans=3)
        spans = [
            tracer.start_trace("batch", f"batch-{i}", float(i))
            for i in range(5)
        ]
        assert len(tracer.spans) == 3
        assert tracer.dropped_spans == 2
        assert tracer.spans[0] is spans[2]
        # Evicted contexts degrade to the no-op span, not a KeyError.
        assert tracer.span_for(spans[0].context) is NOOP_SPAN

"""Exporters: JSONL round-trip, Prometheus validity, CLI renderers."""

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    parse_jsonl_spans,
    prometheus_text,
    render_metrics_summary,
    render_timeline,
    save_spans,
)
from repro.obs.exporters import escape_help_text, escape_label_value, spans_to_jsonl

from repro.obs.catalog import _spec

from .helpers import validate_prometheus_text


def make_spans():
    tracer = Tracer()
    root = tracer.start_trace("batch", "batch-000000", 0.0, interval=10.0)
    ingest = tracer.start_span("ingest", root, 0.0)
    ingest.add_event("chaos.inject", 3.0, event_id=1, fault="crash")
    ingest.finish(10.0)
    q = tracer.start_span("queue", root, 10.0)
    q.finish(10.0)
    root.finish(14.0)
    return tracer.spans


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self):
        spans = make_spans()
        back = parse_jsonl_spans(spans_to_jsonl(spans))
        assert back == spans

    def test_save_and_reload(self, tmp_path):
        spans = make_spans()
        path = save_spans(spans, str(tmp_path / "spans.jsonl"))
        with open(path, encoding="utf-8") as fh:
            assert parse_jsonl_spans(fh.read()) == spans

    def test_bad_line_reports_line_number(self):
        text = spans_to_jsonl(make_spans()) + "\nnot json"
        with pytest.raises(ValueError, match="line 4"):
            parse_jsonl_spans(text)


def populated_registry():
    reg = MetricsRegistry()
    reg.instrument(
        _spec("repro_streaming_batches_total", "counter", "Batches")
    ).inc(3)
    reg.instrument(
        _spec("repro_streaming_queue_length", "gauge", "Queue")
    ).set(2)
    h = reg.instrument(_spec(
        "repro_streaming_processing_seconds", "histogram", "Proc",
        unit="seconds", buckets=(1.0, 5.0),
    ))
    for v in (0.5, 2.0, 9.0):
        h.observe(v)
    return reg


class TestPrometheus:
    def test_snapshot_is_valid(self):
        text = prometheus_text(populated_registry())
        assert validate_prometheus_text(text) == []

    def test_histogram_rendering(self):
        text = prometheus_text(populated_registry())
        assert 'repro_streaming_processing_seconds_bucket{le="1"} 1' in text
        assert 'repro_streaming_processing_seconds_bucket{le="5"} 2' in text
        assert 'repro_streaming_processing_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_streaming_processing_seconds_count 3" in text
        assert "# TYPE repro_streaming_processing_seconds histogram" in text

    def test_validator_catches_bucket_regression(self):
        text = prometheus_text(populated_registry()).replace(
            'le="5"} 2', 'le="5"} 0'
        )
        assert validate_prometheus_text(text) != []

    def test_validator_catches_garbage_sample(self):
        problems = validate_prometheus_text("this is not prometheus\n")
        assert problems != []


class TestRenderers:
    def test_timeline_shows_tree_and_events(self):
        out = render_timeline(make_spans())
        assert "batch-000000" in out
        assert "ingest" in out
        assert "chaos.inject" in out
        # children are indented under the root
        root_line = next(line for line in out.splitlines() if "  batch " in line)
        ingest_line = next(line for line in out.splitlines() if "ingest " in line)
        assert len(ingest_line) - len(ingest_line.lstrip()) > (
            len(root_line) - len(root_line.lstrip())
        )

    def test_timeline_last_n_limits_traces(self):
        tracer = Tracer()
        for i in range(5):
            tracer.start_trace("batch", f"batch-{i:06d}", float(i)).finish(i + 1)
        out = render_timeline(tracer.spans, last_n_traces=2)
        assert "batch-000003" in out and "batch-000004" in out
        assert "batch-000000" not in out

    def test_metrics_summary_mentions_percentiles(self):
        out = render_metrics_summary(populated_registry())
        assert "repro_streaming_processing_seconds" in out
        assert "p95" in out


class TestEscaping:
    def test_label_value_escapes_the_three_specials(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_label_value_passes_everything_else_verbatim(self):
        assert escape_label_value("täsk{}=,") == "täsk{}=,"

    def test_help_text_keeps_quotes_literal(self):
        assert escape_help_text('say "hi"\n\\') == 'say "hi"\\n\\\\'

    def test_escaped_label_values_validate(self):
        escaped = escape_label_value("a\\b\nc")
        text = (
            "# TYPE demo_total counter\n"
            f'demo_total{{path="{escaped}"}} 1\n'
        )
        assert validate_prometheus_text(text) == []

    def test_stray_backslash_in_label_value_is_flagged(self):
        text = (
            "# TYPE demo_total counter\n"
            'demo_total{path="a\\qb"} 1\n'
        )
        problems = validate_prometheus_text(text)
        assert any("invalid escape" in p for p in problems)

    def test_help_line_newline_escaped_in_export(self):
        reg = MetricsRegistry()
        reg.instrument(
            _spec("repro_test_total", "counter", "line one\nline two")
        ).inc()
        text = prometheus_text(reg)
        assert "# HELP repro_test_total line one\\nline two" in text
        assert validate_prometheus_text(text) == []


class TestHistogramInfBucket:
    def test_missing_inf_bucket_is_flagged(self):
        text = prometheus_text(populated_registry())
        stripped = "\n".join(
            line for line in text.splitlines() if 'le="+Inf"' not in line
        )
        problems = validate_prometheus_text(stripped)
        assert any("missing its +Inf bucket" in p for p in problems)

    def test_typed_histogram_with_no_samples_still_needs_inf(self):
        text = (
            "# TYPE demo_seconds histogram\n"
            'demo_seconds_bucket{le="1"} 0\n'
            "demo_seconds_sum 0\n"
            "demo_seconds_count 0\n"
        )
        problems = validate_prometheus_text(text)
        assert any("missing its +Inf bucket" in p for p in problems)


class TestEmptyRegistry:
    def test_empty_registry_exports_empty_string(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_empty_snapshot_is_valid(self):
        assert validate_prometheus_text("") == []


class TestLabeledFamilyExport:
    def test_label_values_with_specials_escape_and_validate(self):
        reg = MetricsRegistry()
        fam = reg.instrument(_spec(
            "repro_kafka_records_consumed_total", "counter", "Consumed",
            labels=("topic",),
        ))
        fam.labels(topic='we"ird\\topic\nname').inc()
        text = prometheus_text(reg)
        assert 'topic="we\\"ird\\\\topic\\nname"' in text
        assert validate_prometheus_text(text) == []

    def test_histogram_family_inf_bucket_per_child(self):
        reg = MetricsRegistry()
        fam = reg.instrument(_spec(
            "repro_engine_stage_seconds", "histogram", "Stage",
            unit="seconds", labels=("stage",), buckets=(1.0, 5.0),
        ))
        fam.labels(stage="map").observe(0.5)
        fam.labels(stage="reduce").observe(9.0)
        text = prometheus_text(reg)
        inf_lines = [
            line for line in text.splitlines() if 'le="+Inf"' in line
        ]
        assert len(inf_lines) == 2
        assert any('stage="map"' in line for line in inf_lines)
        assert any('stage="reduce"' in line for line in inf_lines)
        assert validate_prometheus_text(text) == []

    def test_histogram_family_child_missing_inf_is_flagged(self):
        reg = MetricsRegistry()
        fam = reg.instrument(_spec(
            "repro_engine_stage_seconds", "histogram", "Stage",
            unit="seconds", labels=("stage",), buckets=(1.0,),
        ))
        fam.labels(stage="map").observe(0.5)
        fam.labels(stage="reduce").observe(0.5)
        text = prometheus_text(reg)
        stripped = "\n".join(
            line for line in text.splitlines()
            if not ('le="+Inf"' in line and 'stage="map"' in line)
        )
        problems = validate_prometheus_text(stripped)
        assert any('stage="map"' in p for p in problems)

    def test_empty_family_renders_metadata_only_and_validates(self):
        reg = MetricsRegistry()
        reg.instrument(_spec(
            "repro_chaos_injections_total", "counter", "Faults",
            labels=("kind",),
        ))
        text = prometheus_text(reg)
        assert "# TYPE repro_chaos_injections_total counter" in text
        assert "repro_chaos_injections_total{" not in text
        assert validate_prometheus_text(text) == []

    def test_family_children_render_sorted_by_label_values(self):
        reg = MetricsRegistry()
        fam = reg.instrument(_spec(
            "repro_chaos_injections_total", "counter", "Faults",
            labels=("kind",),
        ))
        for kind in ("zeta", "alpha", "mid"):
            fam.labels(kind=kind).inc()
        text = prometheus_text(reg)
        samples = [
            line for line in text.splitlines()
            if line.startswith("repro_chaos_injections_total{")
        ]
        assert samples == sorted(samples)

    def test_summary_renders_children_and_rejections(self):
        reg = MetricsRegistry()
        fam = reg.instrument(_spec(
            "repro_chaos_injections_total", "counter", "Faults",
            labels=("kind",), max_children=1,
        ))
        fam.labels(kind="crash").inc(2)
        fam.labels(kind="over").inc()  # rejected
        summary = render_metrics_summary(reg)
        assert 'repro_chaos_injections_total{kind="crash"}: 2' in summary
        assert "rejected" in summary

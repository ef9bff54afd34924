"""Trace exports: Chrome Trace Event JSON and folded flamegraph stacks.

Both artifacts must be byte-deterministic under a fixed seed, and the
span JSONL archive must reload into identical exports (the analytics are
pure over span values)."""

import json

import pytest

from repro.analysis import load_span_jsonl
from repro.experiments.common import build_experiment, make_controller
from repro.obs import Telemetry, parse_jsonl_spans, save_spans
from repro.obs.exporters import chrome_trace_json, folded_stacks, spans_to_jsonl
from repro.obs.span import Span

ROUNDS = 4


def traced_run(seed=0, rounds=ROUNDS):
    telemetry = Telemetry(enabled=True)
    setup = build_experiment("wordcount", seed=seed, telemetry=telemetry)
    controller = make_controller(setup, seed=seed)
    controller.run(rounds)
    telemetry.tracer.finalize_all()
    return telemetry.tracer.spans


@pytest.fixture(scope="module")
def spans():
    return traced_run()


class TestChromeTrace:
    def test_is_valid_json_with_expected_event_shapes(self, spans):
        payload = json.loads(chrome_trace_json(spans))
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        for e in events:
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
                assert "spanId" in e["args"]

    def test_thread_metadata_per_trace(self, spans):
        payload = json.loads(chrome_trace_json(spans))
        meta = [
            e for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        trace_ids = {s.trace_id for s in spans}
        assert len(meta) == len(trace_ids)
        assert {m["args"]["name"] for m in meta} == trace_ids

    def test_unfinished_span_becomes_begin_event(self):
        open_span = Span(
            trace_id="t", span_id=1, parent_id=None, name="batch", start=1.5
        )
        payload = json.loads(chrome_trace_json([open_span]))
        kinds = [e["ph"] for e in payload["traceEvents"]]
        assert "B" in kinds and "X" not in kinds

    def test_span_events_become_instant_events(self):
        s = Span(
            trace_id="t", span_id=1, parent_id=None, name="batch",
            start=0.0, end=1.0,
        )
        s.add_event("chaos.inject", 0.25, fault="crash")
        payload = json.loads(chrome_trace_json([s]))
        instants = [
            e for e in payload["traceEvents"] if e["ph"] == "i"
        ]
        assert len(instants) == 1
        assert instants[0]["name"] == "chaos.inject"
        assert instants[0]["ts"] == pytest.approx(0.25 * 1e6)

    def test_byte_deterministic_across_same_seed_runs(self, spans):
        other = traced_run()
        assert chrome_trace_json(spans) == chrome_trace_json(other)


class TestFoldedStacks:
    def test_stack_lines_carry_full_ancestry(self, spans):
        text = folded_stacks(spans)
        lines = text.splitlines()
        assert lines == sorted(lines)
        stacks = {line.rsplit(" ", 1)[0] for line in lines}
        assert any(s.startswith("batch;") for s in stacks)
        for line in lines:
            value = line.rsplit(" ", 1)[1]
            assert int(value) >= 0

    def test_self_time_excludes_finished_children(self):
        parent = Span(
            trace_id="t", span_id=1, parent_id=None, name="batch",
            start=0.0, end=2.0,
        )
        child = Span(
            trace_id="t", span_id=2, parent_id=1, name="execute",
            start=0.5, end=2.0,
        )
        text = folded_stacks([parent, child])
        values = dict(
            line.rsplit(" ", 1) for line in text.splitlines()
        )
        assert int(values["batch"]) == 500_000
        assert int(values["batch;execute"]) == 1_500_000

    def test_byte_deterministic_across_same_seed_runs(self, spans):
        other = traced_run()
        assert folded_stacks(spans) == folded_stacks(other)


class TestRoundTrips:
    def test_span_to_dict_round_trips_events_attrs_and_unfinished(self):
        s = Span(
            trace_id="t", span_id=7, parent_id=3, name="execute",
            start=1.25, attributes={"stage": "map", "records": 10},
        )
        s.add_event("retry", 1.5, attempt=2)
        back = Span.from_dict(s.to_dict())
        assert back == s
        assert back.end is None and not back.finished
        s.finish(2.5)
        finished_back = Span.from_dict(s.to_dict())
        assert finished_back == s

    def test_jsonl_reload_reproduces_both_exports(self, spans, tmp_path):
        path = tmp_path / "spans.jsonl"
        save_spans(spans, path)
        reloaded = load_span_jsonl(path)
        assert reloaded == list(spans)
        assert chrome_trace_json(reloaded) == chrome_trace_json(spans)
        assert folded_stacks(reloaded) == folded_stacks(spans)

    def test_parse_jsonl_spans_matches_loader(self, spans, tmp_path):
        text = spans_to_jsonl(spans)
        path = tmp_path / "spans.jsonl"
        path.write_text(text + "\n")
        assert load_span_jsonl(path) == parse_jsonl_spans(text)

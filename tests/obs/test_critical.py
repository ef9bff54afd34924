"""Critical-path delay decomposition: exact tiling, epoch splits, and
agreement with the batch-side steady-state oracle."""

import pytest

from repro.check.oracles import clean_batches, steady_state_delay_oracle
from repro.experiments.common import build_experiment, make_controller
from repro.obs import (
    TILING_TOL,
    Telemetry,
    analyze_spans,
    critical_path,
    decompose,
    breakdown_section,
    decompose_spans,
    section_text,
    split_epochs,
    steady_state_agreement,
)
from repro.obs.span import Span

ROUNDS = 6


def make_span(span_id, parent_id, name, start, end, trace_id="t", **attrs):
    return Span(
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        start=start,
        end=end,
        attributes=attrs,
    )


def batch_trace(trace_id="t", offset=0.0, batch_index=0, base_id=0, **root_attrs):
    """A synthetic batch trace whose segments tile the root exactly."""
    attrs = dict(
        interval=1.0, batch_index=batch_index, records=100, executors=4
    )
    attrs.update(root_attrs)
    t = offset
    return [
        make_span(base_id + 1, None, "batch", t, t + 2.0, trace_id, **attrs),
        make_span(base_id + 2, base_id + 1, "ingest", t, t + 1.0, trace_id),
        make_span(base_id + 3, base_id + 1, "queue", t + 1.0, t + 1.2, trace_id),
        make_span(
            base_id + 4, base_id + 1, "schedule", t + 1.2, t + 1.3, trace_id
        ),
        make_span(
            base_id + 5, base_id + 1, "execute", t + 1.3, t + 2.0, trace_id
        ),
    ]


@pytest.fixture(scope="module")
def run():
    telemetry = Telemetry(enabled=True)
    setup = build_experiment("wordcount", seed=0, telemetry=telemetry)
    controller = make_controller(setup, seed=0)
    controller.run(ROUNDS)
    telemetry.tracer.finalize_all()
    return telemetry, setup, controller


class TestDecompose:
    def test_segments_tile_the_root_exactly(self):
        d = decompose(batch_trace())
        assert d.complete
        assert d.ingest == pytest.approx(1.0)
        assert d.queue == pytest.approx(0.2)
        assert d.schedule == pytest.approx(0.1)
        assert d.execute == pytest.approx(0.7)
        assert abs(d.residual) <= TILING_TOL

    def test_unfinished_root_yields_none(self):
        spans = batch_trace()
        spans[0] = make_span(1, None, "batch", 0.0, None)
        assert decompose(spans) is None

    def test_missing_segment_is_incomplete(self):
        spans = [s for s in batch_trace() if s.name != "queue"]
        d = decompose(spans)
        assert not d.complete
        assert d.queue == 0.0

    def test_partial_and_dropped_marks_propagate(self):
        d = decompose(batch_trace(partial=True))
        assert d.partial and not d.complete
        d = decompose(batch_trace(dropped=True))
        assert d.dropped and not d.complete

    def test_critical_path_picks_the_longest_chain(self):
        spans = batch_trace()
        spans.append(make_span(6, 5, "task", 1.3, 1.9))
        path = critical_path(spans)
        assert [s.name for s in path] == ["batch", "ingest"]
        # Lengthen execute beyond ingest: the path re-routes through it.
        spans[4] = make_span(5, 1, "execute", 0.5, 2.0)
        path = critical_path(spans)
        assert [s.name for s in path] == ["batch", "execute", "task"]

    def test_critical_path_tie_breaks_to_earliest_created(self):
        spans = [
            make_span(1, None, "batch", 0.0, 2.0),
            make_span(2, 1, "schedule", 0.0, 1.0),
            make_span(3, 1, "execute", 1.0, 2.0),
        ]
        path = critical_path(spans)
        assert [s.span_id for s in path] == [1, 2]


class TestEpochs:
    def _decomps(self):
        spans = []
        for i in range(4):
            spans.extend(batch_trace(
                trace_id=f"a{i}", offset=2.0 * i, batch_index=i,
                base_id=10 * i,
            ))
        for i in range(4, 6):
            spans.extend(batch_trace(
                trace_id=f"b{i}", offset=2.0 * i, batch_index=i,
                base_id=10 * i, executors=8,
                first_after_reconfig=(i == 4),
            ))
        return decompose_spans(spans)

    def test_split_at_reconfiguration(self):
        epochs = split_epochs(self._decomps())
        assert [len(ep) for ep in epochs] == [4, 2]

    def test_breakdown_aggregates_per_epoch(self):
        spans = []
        for i in range(3):
            spans.extend(batch_trace(
                trace_id=f"a{i}", offset=2.0 * i, batch_index=i,
                base_id=10 * i,
            ))
        breakdown = analyze_spans(spans)
        assert breakdown.traces == 3
        assert breakdown.complete == 3
        assert len(breakdown.epochs) == 1
        seg = {s.name: s for s in breakdown.segments}
        assert seg["ingest"].total == pytest.approx(3.0)
        assert seg["execute"].share == pytest.approx(0.7 / 2.0)
        assert breakdown.max_tiling_residual <= TILING_TOL

    def test_breakdown_section_shows_epochs_and_segments(self):
        spans = []
        for i in range(3):
            spans.extend(batch_trace(
                trace_id=f"a{i}", offset=2.0 * i, batch_index=i,
                base_id=10 * i,
            ))
        section = breakdown_section(analyze_spans(spans).to_dict())
        assert section.headers[4:8] == (
            "ingest (s)", "queue (s)", "schedule (s)", "execute (s)"
        )
        # The run-wide row first, then one row per epoch.
        assert [row[0] for row in section.rows] == ["run", "1"]
        assert section.rows[0][4] == "3.000 (50.0%)"
        assert section.rows[1][-1].startswith("batch ")
        text = section_text(section)
        assert text.startswith("-- where the delay went (critical path) --")
        assert "3 batch traces (3 complete" in text


class TestRealRun:
    def test_every_retained_trace_tiles_exactly(self, run):
        telemetry, _, _ = run
        decomps = decompose_spans(telemetry.tracer.spans)
        complete = [d for d in decomps if d.complete]
        assert len(complete) > 10
        for d in complete:
            assert abs(d.residual) <= TILING_TOL, (d.trace_id, d.residual)

    def test_epochs_follow_reconfigurations(self, run):
        telemetry, setup, _ = run
        breakdown = analyze_spans(telemetry.tracer.spans)
        # The optimizer reconfigures constantly; the analysis must see
        # more than one epoch on an optimization run.
        assert len(breakdown.epochs) > 1
        assert breakdown.traces == sum(
            ep.traces for ep in breakdown.epochs
        )

    def test_agrees_with_the_steady_state_oracle(self, run):
        telemetry, setup, _ = run
        batches = setup.context.listener.metrics.batches
        decomps = decompose_spans(telemetry.tracer.spans)
        agreement = steady_state_agreement(decomps, batches)
        assert agreement.samples > 10
        assert agreement.ok, (agreement.expected, agreement.actual)
        # And the batch-side oracle passes on its own clean set, so the
        # two views of the same run agree with each other transitively.
        oracle = steady_state_delay_oracle(clean_batches(batches))
        assert oracle.passed

    def test_wait_matches_batch_side_signals(self, run):
        telemetry, setup, _ = run
        batches = {
            b.batch_index: b
            for b in setup.context.listener.metrics.batches
        }
        checked = 0
        for d in decompose_spans(telemetry.tracer.spans):
            if not d.complete or d.batch_index not in batches:
                continue
            b = batches[d.batch_index]
            # schedule + execute is the batch's processing time; queue is
            # its scheduling delay (both recorded independently).
            assert d.schedule + d.execute == pytest.approx(
                b.processing_time, abs=1e-6
            )
            assert d.queue == pytest.approx(b.scheduling_delay, abs=1e-6)
            checked += 1
        assert checked > 10

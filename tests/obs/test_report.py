"""The run report: judge wiring, stitching, renderings, acceptance checks.

The ``TestJudgedChaosRun`` class runs the seeded quickstart behind
``repro report`` once (module-scoped) and asserts the PR's acceptance
criteria against it: byte-determinism, SLO verdicts, an alert during an
injected fault, the delay decomposition tiling processing time, and the
CUSUM-vs-restart-rule cross-check on the scripted rate shift.
"""

import html
import json

import pytest

from repro.experiments.common import judged_chaos_run
from repro.obs import Telemetry
from repro.obs.alerts import Alert
from repro.obs.report import (
    MAX_ANOMALY_ROWS,
    FaultOutcome,
    RunJudge,
    RunReport,
    build_run_report,
)

from .helpers import make_batch


def minimal_report(**overrides):
    base = dict(
        title="t", workload="wordcount", seed=0, rounds=1,
        sim_duration=100.0, batches=10, records_total=1000,
        final_interval=10.0, final_executors=10,
        first_pause_round=None, resets=0,
    )
    base.update(overrides)
    return RunReport(**base)


class TestRunJudge:
    def test_feeds_every_signal_per_batch(self):
        judge = RunJudge()
        for i in range(12):
            judge.observe_batch(make_batch(i, processing_time=15.0))
        assert judge.batches == 12
        assert judge.last_time == pytest.approx(
            make_batch(11, processing_time=15.0).processing_end
        )
        # The sustained instability reached the alerter and evaluator.
        assert judge.alerter.log
        assert not judge.evaluator.verdicts()[2].passed  # stability-ratio

    def test_anomalies_sorted_by_time_then_kind(self):
        judge = RunJudge()
        for i in range(40):
            judge.observe_batch(make_batch(i))
        events = judge.anomalies()
        assert events == sorted(events, key=lambda e: (e.time, e.kind))


class TestFaultOutcome:
    def test_to_dict_maps_infinite_mttr_to_none(self):
        f = FaultOutcome(event_id=1, name="stall", kind="kafka",
                         fired_at=10.0, mttr=float("inf"), overshoot=None)
        d = f.to_dict()
        assert d["mttr"] is None
        assert d["eventId"] == 1


class TestAlertsDuringFaults:
    def test_overlap_window_includes_mttr(self):
        report = minimal_report(
            alerts=[
                Alert(policy="p", severity="page", fired_at=50.0,
                      fast_burn=7.0, slow_burn=4.0, resolved_at=60.0),
                Alert(policy="p", severity="page", fired_at=500.0,
                      fast_burn=7.0, slow_burn=4.0, resolved_at=510.0),
            ],
            faults=[FaultOutcome(
                event_id=1, name="crash", kind="exec",
                fired_at=40.0, mttr=30.0, overshoot=None,
            )],
        )
        during = report.alerts_during_faults()
        assert [a.fired_at for a in during] == [50.0]


class TestRenderings:
    def test_anomaly_listing_is_capped_with_exact_counts(self):
        judge = RunJudge()
        telemetry = Telemetry(enabled=True)
        # A pathological stream: sparse huge delay spikes (rare enough
        # that the MAD scale stays tight) so the spike detector fires
        # more often than the row cap.
        for i in range(600):
            judge.observe_batch(make_batch(
                i, processing_time=5.0,
                scheduling_delay=300.0 if i % 17 == 0 and i > 20 else 0.0,
            ))
        report = build_run_report(judge, telemetry, title="cap")
        assert len(report.all_anomalies) > MAX_ANOMALY_ROWS
        text = report.render_text()
        listed = [ln for ln in text.splitlines()
                  if ln.startswith("  delay_spike")]
        assert len(listed) <= MAX_ANOMALY_ROWS
        assert f"({len(report.all_anomalies)}" in text
        assert "more, see the JSON report" in text
        # JSON always carries the full list.
        payload = json.loads(report.to_json())
        assert len(payload["anomalies"]) == len(report.all_anomalies)

    def test_html_is_self_contained(self):
        report = minimal_report()
        html = report.render_html()
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert "src=" not in html and "href=" not in html

    def test_html_escapes_untrusted_strings(self):
        report = minimal_report(title="<script>alert(1)</script>")
        assert "<script>alert" not in report.render_html()


@pytest.fixture(scope="module")
def judged():
    return judged_chaos_run()


@pytest.fixture(scope="module")
def judged_repeat():
    return judged_chaos_run()


class TestJudgedChaosRun:
    """The PR's acceptance criteria, asserted end to end."""

    def test_no_critical_breach_on_the_seeded_run(self, judged):
        assert not judged.report.critical_breach
        assert judged.report.render_text().endswith(
            "verdict: OK (no critical SLO breach)"
        )

    def test_report_is_byte_deterministic(self, judged, judged_repeat):
        a, b = judged.report, judged_repeat.report
        assert a.render_text() == b.render_text()
        assert a.render_html() == b.render_html()
        assert a.to_json() == b.to_json()

    def test_has_verdicts_and_an_alert_during_a_fault(self, judged):
        assert len(judged.report.verdicts) >= 1
        assert len(judged.report.alerts_during_faults()) >= 1

    def test_every_fault_joined_with_finite_mttr(self, judged):
        assert len(judged.report.faults) == 2
        assert judged.report.orphan_fault_events == 0
        for f in judged.report.faults:
            assert f.trace_id
            assert f.mttr < float("inf")

    def test_decomposition_tiles_total_processing_time(self, judged):
        batches = judged.setup.context.listener.metrics.batches
        breakdown = judged.report.breakdown
        assert breakdown.complete == len(batches)
        segments = {s.name: s.total for s in breakdown.segments}
        assert segments["schedule"] + segments["execute"] == pytest.approx(
            sum(b.processing_time for b in batches), rel=1e-9
        )

    def test_cusum_fires_within_three_batches_of_the_shift(self, judged):
        """Measured causally: from the first completed batch whose
        *generation window* is post-shift (in-flight batches still carry
        pre-shift data, the detector cannot know earlier)."""
        shift_at = 600.0  # judged_chaos_run default
        post = [
            b.processing_end
            for b in judged.setup.context.listener.metrics.batches
            if b.batch_time >= shift_at
        ]
        fired = [
            e.time
            for e in judged.report.all_anomalies
            if e.kind == "rate_shift" and e.time >= post[0]
        ]
        assert fired, "CUSUM never fired after the scripted shift"
        batches_until_fire = sum(1 for t in post if t <= fired[0])
        assert batches_until_fire <= 3

    def test_cusum_agrees_with_the_restart_rule(self, judged):
        assert judged.report.rate_shift_agreement is True
        assert judged.report.resets >= 1
        assert "AGREE" in judged.report.render_text()

    def test_watchdog_scanned_the_audit_trail(self, judged):
        assert judged.report.decisions > 0
        assert judged.report.watchdog.rounds_scanned > 0


class TestResourcesSection:
    def test_sweep_counters_land_in_resources(self):
        from repro.runner import SweepRunner, SweepSpec

        telemetry = Telemetry(enabled=True)
        runner = SweepRunner(telemetry=telemetry)
        runner.run(SweepSpec(
            name="r", kind="rate_series",
            base={"duration": 30.0, "dt": 5.0, "seed": 1},
            grid={"workload": ["wordcount", "page_analyze"]},
        ))
        report = build_run_report(RunJudge(), telemetry, title="t")
        assert report.resources["repro_runner_cells_total"] == 2.0
        assert report.resources["repro_runner_cache_misses_total"] == 2.0
        assert "repro_supervisor_retries_total" in report.resources
        text = report.render_text()
        assert "-- resources --" in text
        assert any(
            line.split() == ["repro_runner_cells_total", "2"]
            for line in text.splitlines()
        )
        assert "<h2>resources</h2>" in report.render_html()
        assert json.loads(report.to_json())["resources"][
            "repro_runner_cells_total"
        ] == 2.0

    def test_no_sweep_activity_renders_fallback(self):
        telemetry = Telemetry(enabled=True)
        report = build_run_report(RunJudge(), telemetry, title="t")
        assert report.resources == {}
        assert "(no sweep activity)" in report.render_text()
        assert "(no sweep activity)" in report.render_html()


def _in_order(document, pieces):
    """Each piece occurs in ``document`` after the one before it."""
    at = 0
    for piece in pieces:
        found = document.find(piece, at)
        assert found >= 0, f"{piece!r} missing or out of order"
        at = found + len(piece)


def _document_pieces(report):
    for section in report.sections():
        yield section.title
        for row in (section.headers, *section.rows) if section.rows else ():
            yield from row
        yield from section.notes


class TestOneDocument:
    """Both views lay out the same sections, in the same order."""

    @pytest.mark.parametrize("which", ["minimal", "judged"])
    def test_views_show_every_section_in_order(self, which, request):
        report = (
            minimal_report() if which == "minimal"
            else request.getfixturevalue("judged").report
        )
        pieces = list(_document_pieces(report))
        _in_order(report.render_text(), pieces)
        _in_order(report.render_html(), [html.escape(p) for p in pieces])

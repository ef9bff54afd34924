"""Acceptance: a chaos run at 1/16 sampling retains 100% of the traces
that overlap a fault, while the bulk of uninteresting traces is shed."""

import pytest

from repro.experiments.common import judged_chaos_run
from repro.obs import Telemetry
from repro.obs.tracer import RETAIN_CHAOS

SAMPLE_RATE = 16


@pytest.fixture(scope="module")
def sampled():
    telemetry = Telemetry(enabled=True, sample_rate=SAMPLE_RATE)
    return judged_chaos_run(telemetry=telemetry)


class TestSampledChaosRun:
    def test_sampling_actually_sheds_traces(self, sampled):
        tracer = sampled.telemetry.tracer
        total = tracer.retained_traces + tracer.evicted_traces
        # A chaos + rate-shift run is mostly "interesting" (fault
        # windows, anomaly windows, reconfigs), so tail retention keeps
        # the bulk — but the quiet remainder is head-sampled at 1/16:
        # far more quiet traces are shed than kept.
        quiet_kept = tracer.retained_by_reason.get("sampled", 0)
        quiet_shed = tracer.evicted_by_reason.get("sampled_out", 0)
        assert quiet_shed > 0
        assert quiet_kept < quiet_shed / 4
        assert quiet_kept + quiet_shed < total
        # The head-sampling rate shows in the quiet population.
        assert quiet_kept / (quiet_kept + quiet_shed) < 3 / SAMPLE_RATE

    def test_every_fault_trace_survives(self, sampled):
        """Both injected faults join to a live, retained trace."""
        assert sampled.report.orphan_fault_events == 0
        assert len(sampled.report.faults) == 2
        live = set(sampled.telemetry.tracer.trace_ids())
        for fault in sampled.report.faults:
            assert fault.trace_id
            assert fault.trace_id in live

    def test_every_trace_overlapping_a_fault_window_is_retained(self, sampled):
        """100% tail retention over the fault outage windows: every
        batch trace overlapping [fire, recovery] of any fault is live,
        regardless of the 1/16 head sampling."""
        tracer = sampled.telemetry.tracer
        windows = [
            (lo, hi)
            for lo, hi, reason in tracer._interest.windows
            if reason == "chaos"
        ]
        assert len(windows) >= 2
        live_indices = {
            r.attributes.get("batch_index") for r in tracer.roots()
        }
        overlapping = 0
        for b in sampled.setup.context.listener.metrics.batches:
            lo = b.batch_time - b.interval
            hi = b.processing_end
            if any(w_lo <= hi and w_hi >= lo for w_lo, w_hi in windows):
                overlapping += 1
                assert b.batch_index in live_indices, b.batch_index
        assert overlapping > 0

    def test_chaos_is_among_the_retention_reasons(self, sampled):
        reasons = sampled.telemetry.tracer.retained_by_reason
        assert reasons.get(RETAIN_CHAOS, 0) + reasons.get("chaos", 0) >= 1

    def test_report_still_decomposes_the_retained_traces(self, sampled):
        breakdown = sampled.report.breakdown
        assert breakdown is not None
        assert breakdown.complete > 0
        assert breakdown.max_tiling_residual <= 1e-9

"""Declarative SLOs: spec validation, incremental evaluation, verdicts."""

import pytest

from repro.obs import SLOEvaluator, has_critical_breach
from repro.obs.slo import SLO, default_slos
from repro.obs.catalog import _spec
from repro.obs.registry import MetricsRegistry

from .helpers import make_batch


class TestSpec:
    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            SLO(name="x", objective="latency_p42", threshold=1.0)

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown severity"):
            SLO(name="x", objective="delay_p95", threshold=1.0,
                severity="sev0")

    def test_counter_max_requires_metric(self):
        with pytest.raises(ValueError, match="metric name"):
            SLO(name="x", objective="counter_max", threshold=1.0)

    def test_counter_max_rejects_a_histogram(self):
        # A histogram has no one value: this used to pass here and raise
        # AttributeError at verdict time.
        with pytest.raises(ValueError, match="histogram"):
            SLO(name="x", objective="counter_max", threshold=1.0,
                metric="repro_streaming_processing_seconds")

    @pytest.mark.parametrize(
        "metric",
        [
            "repro_streaming_batches_dropped_total",
            "repro_streaming_queue_length",
            "repro_kafka_records_consumed_total",  # summed over topics
        ],
    )
    def test_counter_max_accepts_a_counter_or_gauge(self, metric):
        SLO(name="x", objective="counter_max", threshold=1.0, metric=metric)

    def test_duplicate_names_rejected(self):
        slo = SLO(name="dup", objective="delay_p95", threshold=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            SLOEvaluator([slo, slo])

    def test_default_set_names_are_unique(self):
        names = [s.name for s in default_slos()]
        assert len(set(names)) == len(names)


class TestIncrementalEvaluation:
    def test_first_violation_time_is_the_crossing_batch(self):
        slo = SLO(name="stab", objective="stability_ratio", threshold=0.4,
                  severity="critical")
        ev = SLOEvaluator([slo])
        # Two stable batches, then two unstable: the running ratio
        # crosses 0.4 (1/3 -> 2/4) on the fourth batch.
        ev.observe_batch(make_batch(0, processing_time=5.0))
        ev.observe_batch(make_batch(1, processing_time=5.0))
        ev.observe_batch(make_batch(2, processing_time=15.0))
        assert ev.verdicts()[0].violated_at is None
        ev.observe_batch(make_batch(3, processing_time=15.0))
        verdict = ev.verdicts()[0]
        assert not verdict.passed
        assert verdict.violated_at == pytest.approx(
            make_batch(3, processing_time=15.0).processing_end
        )

    def test_delay_p95_passes_under_threshold(self):
        slo = SLO(name="d", objective="delay_p95", threshold=60.0)
        ev = SLOEvaluator([slo])
        for i in range(10):
            ev.observe_batch(make_batch(i))
        verdict = ev.verdicts()[0]
        assert verdict.passed
        assert verdict.value < 60.0

    def test_scheduling_delay_max_tracks_worst_batch(self):
        slo = SLO(name="s", objective="scheduling_delay_max", threshold=30.0)
        ev = SLOEvaluator([slo])
        ev.observe_batch(make_batch(0, scheduling_delay=5.0))
        ev.observe_batch(make_batch(1, scheduling_delay=45.0))
        ev.observe_batch(make_batch(2, scheduling_delay=2.0))
        verdict = ev.verdicts()[0]
        assert not verdict.passed
        assert verdict.value == pytest.approx(45.0)


class TestEndOfRunSignals:
    def test_recovery_time_uses_worst_fault(self):
        slo = SLO(name="r", objective="recovery_time", threshold=100.0)
        ev = SLOEvaluator([slo])
        verdict = ev.verdicts(
            fault_mttrs=[("crash", 40.0), ("stall", 140.0)]
        )[0]
        assert not verdict.passed
        assert verdict.value == pytest.approx(140.0)
        assert "stall" in verdict.detail

    def test_never_recovered_fault_fails_with_detail(self):
        slo = SLO(name="r", objective="recovery_time", threshold=100.0)
        verdict = SLOEvaluator([slo]).verdicts(
            fault_mttrs=[("stall", float("inf"))]
        )[0]
        assert not verdict.passed
        assert "never re-stabilized" in verdict.detail

    def test_counter_max_reads_registry(self):
        registry = MetricsRegistry()
        ctr = registry.instrument(
            _spec("repro_test_drops_total", "counter", "drops")
        )
        ctr.inc(7)
        slo = SLO(name="c", objective="counter_max", threshold=5.0,
                  metric="repro_test_drops_total")
        verdict = SLOEvaluator([slo]).verdicts(registry=registry)[0]
        assert not verdict.passed
        assert verdict.value == 7.0

    def test_counter_max_on_an_uncataloged_histogram_fails(self):
        # The declaration-time kind check reads only cataloged specs, so
        # the verdict must check the live instrument's kind itself.
        registry = MetricsRegistry()
        hist = registry.instrument(
            _spec("repro_test_latency_seconds", "histogram", "latency")
        )
        hist.observe(0.5)
        slo = SLO(name="h", objective="counter_max", threshold=5.0,
                  metric="repro_test_latency_seconds")
        verdict = SLOEvaluator([slo]).verdicts(registry=registry)[0]
        assert not verdict.passed
        assert "histogram" in verdict.detail

    def test_missing_signal_passes_vacuously(self):
        slo = SLO(name="r", objective="recovery_time", threshold=100.0)
        verdict = SLOEvaluator([slo]).verdicts()[0]
        assert verdict.passed
        assert verdict.detail == "no signal observed"


class TestRollups:
    def test_only_critical_breaches_count(self):
        warn = SLO(name="warn", objective="delay_p95", threshold=0.1,
                   severity="warning")
        crit = SLO(name="crit", objective="stability_ratio", threshold=0.1,
                   severity="critical")
        for slos, expected in (([warn], False), ([warn, crit], True)):
            ev = SLOEvaluator(slos)
            for i in range(4):
                ev.observe_batch(make_batch(i, processing_time=15.0))
            assert has_critical_breach(ev.verdicts()) is expected

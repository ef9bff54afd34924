"""Metamorphic relations: transformations with known output effects."""

import pytest

from repro.baselines.fixed import run_fixed_configuration
from repro.check import metamorphic
from repro.check.metamorphic import (
    dilated_experiment_kwargs,
    executor_homogeneity_check,
    normalized_delays,
    scaled_cluster,
    scaled_rate_trace,
    stability_fraction,
    time_dilation_check,
)
from repro.cluster.cluster import paper_cluster
from repro.experiments.common import build_experiment
from repro.workloads import make_workload

#: Pure-compute workload (all stages io=0): dilation is exact up to
#: fixed costs and overheads.
WL = "logistic_regression"


class TestScaling:
    def test_scaled_cluster_multiplies_speeds(self):
        base = paper_cluster()
        scaled = scaled_cluster(base, 2.0)
        for b, s in zip(base.nodes, scaled.nodes):
            assert s.cpu.speed_factor == pytest.approx(
                2.0 * b.cpu.speed_factor
            )
            assert s.cpu.cores == b.cpu.cores
            assert s.disk is b.disk

    def test_scaled_cluster_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaled_cluster(paper_cluster(), 0.0)

    def test_scaled_rate_trace_multiplies_rates(self):
        from repro.datagen.rates import paper_rate_trace

        base = paper_rate_trace(WL, seed=0)
        doubled = scaled_rate_trace(base, 2.0)
        for t in (0.0, 13.0, 77.5, 400.0):
            assert doubled.rate(t) == pytest.approx(2.0 * base.rate(t))


class TestTimeDilation:
    @pytest.fixture(scope="class")
    def runs(self):
        k, seed, batches, warmup = 2.0, 9, 14, 4
        base = build_experiment(WL, seed=seed)
        run_fixed_configuration(base.context, batches=batches, warmup=warmup)
        dilated = build_experiment(
            WL, seed=seed, **dilated_experiment_kwargs(WL, k, seed=seed)
        )
        run_fixed_configuration(
            dilated.context, batches=batches, warmup=warmup
        )
        return (
            base.context.listener.metrics.batches[warmup:],
            dilated.context.listener.metrics.batches[warmup:],
            k,
        )

    def test_stability_classification_invariant(self, runs):
        base, dilated, k = runs
        res, _ = time_dilation_check(base, dilated, k)
        assert res.passed, res.render()

    def test_normalized_delays_invariant(self, runs):
        base, dilated, k = runs
        _, res = time_dilation_check(base, dilated, k)
        assert res.passed, res.render()

    def test_dilated_run_actually_scaled(self, runs):
        base, dilated, _ = runs
        base_records = sum(b.records for b in base) / len(base)
        dil_records = sum(b.records for b in dilated) / len(dilated)
        # Rates doubled => ~2x the records per batch.
        assert dil_records == pytest.approx(2.0 * base_records, rel=0.05)

    def test_helpers(self, runs):
        base, _, _ = runs
        assert 0.0 <= stability_fraction(base) <= 1.0
        assert len(normalized_delays(base)) == len(
            [b for b in base if b.records > 0]
        )


class TestExecutorHomogeneity:
    def test_split_pool_equals_aggregate(self, monkeypatch):
        monkeypatch.setattr(metamorphic, "HOMOGENEITY_RECORDS", 30_000)
        monkeypatch.setattr(metamorphic, "HOMOGENEITY_EXECUTORS", 6)
        wl = make_workload(WL)
        res = executor_homogeneity_check(wl)
        assert res.passed, res.render()
        assert res.expected == pytest.approx(res.actual, abs=1e-9)

    def test_holds_across_speeds_and_sizes(self, monkeypatch):
        monkeypatch.setattr(metamorphic, "HOMOGENEITY_RECORDS", 20_000)
        wl = make_workload("wordcount")
        for n, speed in ((2, 1.0), (5, 0.66), (12, 1.05)):
            monkeypatch.setattr(metamorphic, "HOMOGENEITY_EXECUTORS", n)
            monkeypatch.setattr(metamorphic, "HOMOGENEITY_SPEED", speed)
            res = executor_homogeneity_check(wl)
            assert res.passed, res.render()

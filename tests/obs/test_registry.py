"""Metrics registry: one factory, instrument semantics, no-op path."""

import dataclasses

import pytest

from repro.obs import (
    NOOP_INSTRUMENT,
    NOOP_REGISTRY,
    MetricsRegistry,
)
from repro.obs.catalog import _spec
from repro.obs.registry import Histogram, MetricFamily


class TestNaming:
    """One family per name, built from one spec."""

    def test_create_or_get_dedups(self):
        reg = MetricsRegistry()
        spec = _spec("repro_x_y_total", "counter", "h")
        a = reg.instrument(spec)
        b = reg.instrument(spec)
        assert a is b
        assert len(reg) == 1

    @pytest.mark.parametrize("registered,requested", [
        ({}, {"kind": "gauge"}),
        ({"labels": ("kind",)}, {"labels": ("other",)}),
        ({"labels": ("kind",)}, {"labels": ("kind",), "kind": "gauge"}),
        ({"labels": ("kind",)}, {}),
        ({}, {"labels": ("kind",)}),
        ({"labels": ("kind",)}, {"labels": ("kind",), "max_children": 5}),
        ({}, {"help": "other help"}),
    ], ids=["kind", "label-schema", "family-kind", "flat-shadows-family",
            "family-shadows-flat", "budget", "help"])
    def test_different_spec_for_a_name_raises(
        self, registered, requested
    ):
        reg = MetricsRegistry()
        base = _spec("repro_x_y_total", "counter", "h")
        reg.instrument(dataclasses.replace(base, **registered))
        with pytest.raises(ValueError, match="already registered"):
            reg.instrument(dataclasses.replace(base, **requested))

    def test_collect_sorted(self):
        reg = MetricsRegistry()
        reg.instrument(_spec("repro_b_y_total", "counter", "h"))
        reg.instrument(_spec("repro_a_y_total", "counter", "h"))
        assert [m.name for m in reg.collect()] == [
            "repro_a_y_total", "repro_b_y_total",
        ]

    def test_unlabeled_spec_is_a_family_with_one_bound_child(self):
        reg = MetricsRegistry()
        child = reg.instrument(_spec("repro_x_y_total", "counter", "h"))
        (family,) = reg.collect()
        assert isinstance(family, MetricFamily)
        assert family.children() == [((), child)]


class TestInstruments:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.instrument(_spec("repro_x_y_total", "counter", "h"))
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.instrument(_spec("repro_x_y", "gauge", "h"))
        g.set(5)
        g.dec(2)
        g.inc(0.5)
        assert g.value == pytest.approx(3.5)

    def test_histogram_buckets_cumulative(self):
        h = Histogram("repro_h_seconds", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1, 1]
        assert h.cumulative_counts() == [1, 2, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(105.0)

    def test_histogram_boundary_lands_in_le_bucket(self):
        # Prometheus buckets are (lo, hi]: an observation exactly on a
        # bound belongs to that bound's bucket.
        h = Histogram("repro_h_seconds", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.bucket_counts == [1, 0, 0]

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("repro_h_seconds", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("repro_h_seconds", buckets=())

    def test_quantile_interpolates(self):
        h = Histogram("repro_h_seconds", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(1.5)
        q = h.quantile(0.5)
        assert 1.0 <= q <= 2.0
        assert h.quantile(0.0) <= h.quantile(0.99)

    def test_quantile_empty_is_zero(self):
        h = Histogram("repro_h_seconds", buckets=(1.0,))
        assert h.quantile(0.95) == 0.0


class TestNoopRegistry:
    def test_factories_return_shared_noop(self):
        for kind, labels in (
            ("counter", ()), ("gauge", ()), ("histogram", ()),
            ("counter", ("k",)),
        ):
            spec = _spec("repro_x_y", kind, "h", labels=labels)
            assert NOOP_REGISTRY.instrument(spec) is NOOP_INSTRUMENT
        assert not NOOP_REGISTRY.enabled

    def test_noop_instrument_absorbs_everything(self):
        NOOP_INSTRUMENT.inc()
        NOOP_INSTRUMENT.set(5)
        NOOP_INSTRUMENT.observe(1.0)
        assert NOOP_INSTRUMENT.labels(k="anything") is NOOP_INSTRUMENT
        assert NOOP_INSTRUMENT.value == 0.0
        assert list(NOOP_REGISTRY.collect()) == []

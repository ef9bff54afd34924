"""Labeled metric families: schema, interning, cardinality budgets."""

import pytest

from repro.obs import (
    CARDINALITY_REJECTED,
    NOOP_INSTRUMENT,
    NOOP_REGISTRY,
    MetricsRegistry,
    lint_catalog,
)
from repro.obs.catalog import _spec
from repro.obs.registry import Counter, Gauge, Histogram, MetricFamily


def family(reg, name, labels=("k",), kind="counter", **fields):
    """The family a test spec declares on ``reg``."""
    return reg.instrument(_spec(name, kind, "h", labels=labels, **fields))


class TestFamilyBasics:
    def test_counter_family_children_accumulate_independently(self):
        reg = MetricsRegistry()
        fam = family(reg, "repro_chaos_injections_total", ("kind",))
        fam.labels(kind="crash").inc()
        fam.labels(kind="crash").inc(2)
        fam.labels(kind="skew").inc()
        assert fam.labels(kind="crash").value == 3.0
        assert fam.labels(kind="skew").value == 1.0

    def test_family_value_sums_children(self):
        reg = MetricsRegistry()
        fam = family(reg, "repro_chaos_injections_total", ("kind",))
        fam.labels(kind="crash").inc(2)
        fam.labels(kind="skew").inc(3)
        assert fam.value == 5.0

    def test_children_interned_by_label_values(self):
        reg = MetricsRegistry()
        fam = family(
            reg, "repro_kafka_consumer_lag_records", ("topic",), "gauge"
        )
        a = fam.labels(topic="events")
        b = fam.labels(topic="events")
        assert a is b

    def test_children_sorted_deterministically(self):
        reg = MetricsRegistry()
        fam = family(reg, "repro_chaos_injections_total", ("kind",))
        for kind in ("zeta", "alpha", "mid"):
            fam.labels(kind=kind).inc()
        assert [v for v, _ in fam.children()] == [
            ("alpha",), ("mid",), ("zeta",)
        ]

    def test_histogram_family_child_observes(self):
        reg = MetricsRegistry()
        fam = family(
            reg, "repro_engine_stage_seconds", ("stage",), "histogram",
            unit="seconds", buckets=(1.0, 5.0),
        )
        fam.labels(stage="map").observe(0.5)
        fam.labels(stage="map").observe(2.0)
        child = fam.labels(stage="map")
        assert child.count == 2
        assert child.sum == 2.5

    def test_same_name_same_schema_is_idempotent(self):
        reg = MetricsRegistry()
        a = family(reg, "repro_x_y_total")
        b = family(reg, "repro_x_y_total")
        assert a is b


class TestSchemaEnforcement:
    def test_wrong_label_names_rejected(self):
        reg = MetricsRegistry()
        fam = family(reg, "repro_x_y_total", ("kind",))
        with pytest.raises(ValueError, match="label"):
            fam.labels(flavor="crash")

    def test_missing_label_rejected(self):
        reg = MetricsRegistry()
        fam = family(reg, "repro_x_y_total", ("a", "b"))
        with pytest.raises(ValueError):
            fam.labels(a="1")

    def test_invalid_label_name_at_declaration(self):
        # Label rules are checked once, over the declarations.
        bad = _spec("repro_x_y_total", "counter", "h", labels=("Bad-Name",))
        assert any("invalid label name" in p for p in lint_catalog([bad]))

    def test_reserved_label_name_rejected(self):
        # A histogram family may not declare the ``le`` its buckets use.
        bad = _spec(
            "repro_x_y_seconds", "histogram", "h", unit="seconds", labels=("le",)
        )
        assert any("reserved" in p for p in lint_catalog([bad]))


class TestCardinalityBudget:
    def test_over_budget_rejected_with_accounting(self):
        reg = MetricsRegistry()
        fam = family(reg, "repro_x_y_total", max_children=2)
        fam.labels(k="a").inc()
        fam.labels(k="b").inc()
        over = fam.labels(k="c")
        assert over is NOOP_INSTRUMENT
        assert fam.rejected == 1
        rejected = reg.get(CARDINALITY_REJECTED.name)
        assert rejected is not None and rejected.value == 1.0

    def test_existing_children_unaffected_by_rejections(self):
        reg = MetricsRegistry()
        fam = family(reg, "repro_x_y_total", max_children=1)
        fam.labels(k="a").inc(5)
        fam.labels(k="b").inc(100)  # rejected: goes to the noop
        assert fam.labels(k="a").value == 5.0
        assert len(fam) == 1

    def test_rejection_never_raises(self):
        reg = MetricsRegistry()
        fam = family(reg, "repro_x_y", kind="gauge", max_children=1)
        fam.labels(k="a").set(1)
        for i in range(10):
            fam.labels(k=f"overflow{i}").set(i)
        assert fam.rejected == 10

    def test_interned_child_does_not_consume_budget(self):
        reg = MetricsRegistry()
        fam = family(reg, "repro_x_y_total", max_children=2)
        for _ in range(5):
            fam.labels(k="a").inc()
        assert fam.rejected == 0
        assert fam.labels(k="a").value == 5.0


class TestNoopFamilies:
    def test_noop_registry_family_factories(self):
        for kind in ("counter", "gauge", "histogram"):
            fam = family(NOOP_REGISTRY, "repro_x_y", kind=kind)
            child = fam.labels(k="anything")
            assert child is NOOP_INSTRUMENT
            child.inc()
            child.set(3)
            child.observe(1.0)

    def test_family_classes_report_kind(self):
        # One family class: its spec names the kind, and its children
        # are built from it.
        reg = MetricsRegistry()
        fams = [
            family(reg, name, kind=kind, unit=unit)
            for name, kind, unit in (
                ("repro_a_c_total", "counter", ""),
                ("repro_a_d", "gauge", ""),
                ("repro_a_e_seconds", "histogram", "seconds"),
            )
        ]
        assert all(isinstance(f, MetricFamily) for f in fams)
        assert [f.spec.kind for f in fams] == ["counter", "gauge", "histogram"]
        assert [type(f.labels(k="a")) for f in fams] == [
            Counter, Gauge, Histogram,
        ]

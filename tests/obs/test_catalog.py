"""Metric catalog: conventions, governance, instrument(), generators."""

import dataclasses

import pytest

from repro.obs import (
    CATALOG,
    MetricsRegistry,
    Telemetry,
    catalog_json,
    catalog_markdown,
    check_registry,
    governance_report,
    lint_catalog,
)
from repro.obs.catalog import MetricSpec, _spec, instrument, names, spec_for


class TestCatalogConventions:
    def test_shipped_catalog_is_convention_clean(self):
        assert lint_catalog() == []

    def test_name_outside_repro_prefix_flagged(self):
        bad = _spec("spark_batches_total", "counter", "h")
        assert any("repro_" in p for p in lint_catalog([bad]))

    def test_invalid_metric_name_characters_flagged(self):
        bad = _spec("repro_bad-name_total", "counter", "h")
        assert any("invalid metric name" in p for p in lint_catalog([bad]))

    def test_counter_without_total_suffix_flagged(self):
        bad = _spec("repro_x_things", "counter", "h")
        assert any("_total" in p for p in lint_catalog([bad]))

    def test_non_counter_with_total_suffix_flagged(self):
        bad = _spec("repro_x_things_total", "gauge", "h")
        assert any("only counters" in p for p in lint_catalog([bad]))

    def test_unknown_unit_flagged(self):
        bad = _spec("repro_x_y_furlongs", "gauge", "h", unit="furlongs")
        assert any("unknown unit" in p for p in lint_catalog([bad]))

    def test_unit_must_appear_in_name(self):
        bad = _spec("repro_x_y", "gauge", "h", unit="seconds")
        assert any("suffix" in p for p in lint_catalog([bad]))

    def test_histogram_requires_unit(self):
        bad = _spec("repro_x_y", "histogram", "h")
        assert any("unit" in p for p in lint_catalog([bad]))

    def test_reserved_label_flagged(self):
        bad = _spec("repro_x_y_total", "counter", "h", labels=("le",))
        assert any("reserved" in p for p in lint_catalog([bad]))

    def test_duplicate_names_flagged(self):
        s = _spec("repro_x_y_total", "counter", "h")
        assert any("2 times" in p for p in lint_catalog([s, s]))

    def test_empty_help_flagged(self):
        bad = _spec("repro_x_y_total", "counter", "  ")
        assert any("help" in p for p in lint_catalog([bad]))


class TestGovernance:
    def test_live_registry_matching_catalog_is_clean(self):
        reg = MetricsRegistry()
        instrument(reg, "repro_streaming_batches_total").inc()
        instrument(reg, "repro_chaos_injections_total").labels(
            kind="crash"
        ).inc()
        assert check_registry(reg) == []

    def test_uncataloged_series_flagged(self):
        reg = MetricsRegistry()
        reg.instrument(_spec("repro_rogue_series_total", "counter", "h"))
        problems = check_registry(reg)
        assert any("not in the catalog" in p for p in problems)

    @staticmethod
    def drifted(name, **change):
        """``check_registry`` of a registry holding ``name`` with one
        field of its spec changed."""
        reg = MetricsRegistry()
        reg.instrument(dataclasses.replace(spec_for(name), **change))
        return check_registry(reg)

    def test_kind_drift_flagged(self):
        (problem,) = self.drifted("repro_streaming_batches_total",
                                  kind="gauge")
        assert problem.startswith("repro_streaming_batches_total: live spec")

    def test_label_schema_drift_flagged(self):
        # Cataloged as a kind-labeled family; registered flat here.
        (problem,) = self.drifted("repro_chaos_injections_total", labels=())
        assert problem.startswith("repro_chaos_injections_total: live spec")

    def test_budget_drift_flagged(self):
        # The family also registers the cardinality-rejection counter,
        # whose spec matches: only the drifted family is flagged.
        (problem,) = self.drifted("repro_chaos_injections_total",
                                  max_children=17)
        assert "max_children=17" in problem
        assert "max_children=16" in problem

    def test_governance_report_combines_both_passes(self):
        reg = MetricsRegistry()
        reg.instrument(_spec("repro_rogue_series_total", "counter", "h"))
        report = governance_report(reg)
        assert any("repro_rogue_series_total" in p for p in report)

    def test_full_instrumented_run_is_governance_clean(self):
        from repro.experiments.common import build_experiment

        telemetry = Telemetry(enabled=True)
        setup = build_experiment("wordcount", seed=3, telemetry=telemetry)
        setup.context.advance_batches(3)
        assert governance_report(telemetry.metrics) == []


class TestInstrument:
    def test_unknown_name_raises_with_guidance(self):
        with pytest.raises(KeyError, match="declare it"):
            instrument(MetricsRegistry(), "repro_missing_series_total")

    def test_flat_spec_creates_flat_instrument(self):
        reg = MetricsRegistry()
        c = instrument(reg, "repro_nostop_rounds_total")
        c.inc()
        assert reg.get("repro_nostop_rounds_total").value == 1.0

    def test_labeled_spec_creates_family_with_budget(self):
        reg = MetricsRegistry()
        fam = instrument(reg, "repro_kafka_consumer_lag_records")
        assert fam.spec == spec_for("repro_kafka_consumer_lag_records")
        assert fam.spec.max_children == 32

    def test_histogram_spec_buckets_honored(self):
        reg = MetricsRegistry()
        h = instrument(reg, "repro_streaming_batch_records_count")
        spec = spec_for("repro_streaming_batch_records_count")
        assert tuple(h.bounds) == spec.buckets


class TestNamesEnumeration:
    def test_names_sorted_and_filterable(self):
        runner = names(subsystem=("runner",), kind="counter")
        assert runner == sorted(runner)
        assert all(n.startswith("repro_runner_") for n in runner)
        assert all(spec_for(n).kind == "counter" for n in runner)

    def test_report_resource_names_cover_runner_and_supervisor(self):
        got = names(subsystem=("runner", "supervisor"), kind="counter")
        assert "repro_runner_cells_total" in got
        assert "repro_supervisor_retries_total" in got
        assert "repro_runner_sweep_seconds" not in got  # histogram


class TestGenerators:
    def test_markdown_byte_deterministic(self):
        assert catalog_markdown() == catalog_markdown()

    def test_json_byte_deterministic(self):
        assert catalog_json() == catalog_json()

    def test_markdown_lists_every_metric(self):
        md = catalog_markdown()
        for spec in CATALOG:
            assert f"`{spec.name}`" in md

    def test_json_lists_every_metric_sorted(self):
        import json

        payload = json.loads(catalog_json())
        listed = [m["name"] for m in payload["metrics"]]
        assert sorted(listed) == sorted(s.name for s in CATALOG)
        subsystems = [m["subsystem"] for m in payload["metrics"]]
        assert subsystems == sorted(subsystems)

    def test_spec_to_dict_round_trips_labels(self):
        spec = MetricSpec(
            name="repro_x_y_total", kind="counter", subsystem="x",
            help="h", labels=("a", "b"), max_children=4,
        )
        d = spec.to_dict()
        assert d["labels"] == ["a", "b"]
        assert d["maxChildren"] == 4

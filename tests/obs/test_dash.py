"""Grafana dashboard generation from the catalog."""

import json

from repro.obs import CATALOG, dashboard_json
from repro.obs.dash import build_dashboard
from repro.obs.catalog import _spec


class TestDeterminism:
    def test_byte_deterministic(self):
        assert dashboard_json() == dashboard_json()

    def test_ids_sequential_from_one(self):
        dash = build_dashboard()
        ids = [p["id"] for p in dash["panels"]]
        assert ids == list(range(1, len(ids) + 1))


class TestStructure:
    def test_one_row_per_subsystem_sorted(self):
        dash = build_dashboard()
        rows = [p["title"] for p in dash["panels"] if p["type"] == "row"]
        assert rows == sorted({s.subsystem for s in CATALOG})

    def test_one_panel_per_metric(self):
        dash = build_dashboard()
        panels = [p for p in dash["panels"] if p["type"] == "timeseries"]
        assert len(panels) == len(CATALOG)

    def test_counter_panel_uses_rate(self):
        spec = _spec("repro_x_things_total", "counter", "h")
        dash = build_dashboard(catalog=[spec])
        (panel,) = [p for p in dash["panels"] if p["type"] == "timeseries"]
        assert "rate(repro_x_things_total[5m])" in panel["targets"][0]["expr"]

    def test_labeled_counter_sums_by_label_schema(self):
        spec = _spec("repro_x_things_total", "counter", "h",
                     labels=("kind",))
        dash = build_dashboard(catalog=[spec])
        (panel,) = [p for p in dash["panels"] if p["type"] == "timeseries"]
        assert panel["targets"][0]["expr"].startswith("sum by (kind)")

    def test_gauge_panel_plain_series(self):
        spec = _spec("repro_x_depth", "gauge", "h")
        dash = build_dashboard(catalog=[spec])
        (panel,) = [p for p in dash["panels"] if p["type"] == "timeseries"]
        assert panel["targets"][0]["expr"] == "repro_x_depth"

    def test_histogram_panel_quantile_fan(self):
        spec = _spec("repro_x_y_seconds", "histogram", "h", unit="seconds")
        dash = build_dashboard(catalog=[spec])
        (panel,) = [p for p in dash["panels"] if p["type"] == "timeseries"]
        legends = [t["legendFormat"] for t in panel["targets"]]
        assert legends == ["p50", "p95", "p99"]
        assert all("histogram_quantile" in t["expr"]
                   for t in panel["targets"])
        assert panel["fieldConfig"]["defaults"]["unit"] == "s"

    def test_datasource_templated(self):
        dash = build_dashboard()
        (var,) = dash["templating"]["list"]
        assert var["type"] == "datasource"
        panels = [p for p in dash["panels"] if p["type"] == "timeseries"]
        assert all(
            p["datasource"]["uid"] == "${datasource}" for p in panels
        )

    def test_json_parses_and_carries_schema_version(self):
        payload = json.loads(dashboard_json())
        assert payload["schemaVersion"] == 39
        assert payload["editable"] is False

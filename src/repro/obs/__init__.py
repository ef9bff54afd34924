"""Telemetry subsystem: tracing, metrics, and the SPSA audit trail.

Zero-dependency observability for the NoStop reproduction (DESIGN.md
§10).  Three surfaces, bundled behind one :class:`Telemetry` hub that is
threaded explicitly through the stack:

* :class:`Tracer` — span-based tracing of the batch lifecycle, one trace
  per micro-batch with ingest / queue / schedule / execute child spans;
* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms named ``repro_<subsystem>_<name>_<unit>``;
* :class:`AuditTrail` — a per-iteration record of every SPSA decision,
  replayable to prove the log matches the optimizer's actual steps.

Everything defaults to :data:`NOOP_TELEMETRY`; the disabled path is a
handful of no-op method calls per batch (benchmarked under 8% overhead on
the wordcount workload, the bound ``benchmarks/test_telemetry_overhead.py``
asserts).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "alerts": (
        "Alert", "BurnRateAlerter", "BurnRatePolicy", "default_policies",
        "delay_above", "unstable_batch",
    ),
    "audit": (
        "AuditTrail", "ReplayMismatch", "RuleFiring", "SPSADecision",
        "clipped_axes",
    ),
    "catalog": (
        "CATALOG", "DEFAULT_COUNT_BUCKETS", "catalog_json", "catalog_markdown",
        "check_registry", "governance_report", "lint_catalog",
    ),
    "critical": (
        "SEGMENT_SPANS", "TILING_TOL", "CriticalStep", "DelayBreakdown", "Epoch",
        "OracleAgreement", "SegmentStat", "TraceDecomposition",
        "analyze_decompositions", "analyze_spans", "critical_path", "decompose",
        "decompose_spans", "group_spans_by_trace", "split_epochs",
        "steady_state_agreement",
    ),
    "dash": ("build_dashboard", "dashboard_json"),
    "detect": (
        "MAD_TO_SIGMA", "AnomalyEvent", "CusumDetector", "EwmaMadDetector",
        "SpsaWatchdog", "WatchdogReport",
    ),
    "emit": (
        "EmissionBatcher", "JsonlSink", "metric_events", "trace_summary_event",
    ),
    "exporters": (
        "chrome_trace_json", "escape_help_text", "escape_label_value",
        "folded_stacks", "parse_jsonl_spans", "prometheus_text",
        "render_metrics_summary", "render_timeline", "save_chrome_trace",
        "save_folded", "save_spans", "spans_to_jsonl",
    ),
    "registry": (
        "CARDINALITY_REJECTED", "DEFAULT_MAX_CHILDREN",
        "DEFAULT_SECONDS_BUCKETS", "NOOP_INSTRUMENT", "NOOP_REGISTRY",
        "Counter", "Gauge", "Histogram", "MetricFamily", "MetricSpec",
        "MetricsRegistry",
    ),
    "report": (
        "FaultOutcome", "RunJudge", "RunReport", "Section", "breakdown_section",
        "build_run_report", "section_text",
    ),
    "slo": (
        "SLO", "SLOEvaluator", "SLOVerdict", "default_slos",
        "has_critical_breach",
    ),
    "span": ("NOOP_SPAN", "Span", "SpanEvent", "TraceContext"),
    "tracer": ("NOOP_TELEMETRY", "Telemetry", "Tracer"),
})

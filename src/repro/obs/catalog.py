"""The declarative metric catalog: every ``repro_*`` series, governed.

This module is the **schema of record** for the metrics the repository
emits.  Each metric is declared once as a :class:`MetricSpec` — name,
kind, unit, label schema, owning subsystem, help text, stability — and
instrumentation call sites create their instruments *through* the
catalog (:func:`instrument`), so a series cannot exist without a
declaration the governance checker can see.

Three consumers sit on top of the catalog:

* **governance** — :func:`lint_catalog` is the one place name and label
  rules are checked (the Prometheus character set, ``_total`` on
  counters, unit suffixes, label-name rules), and
  :func:`check_registry` flags any live series whose spec is not the
  cataloged one (uncataloged or drifted).  Both are wired into ``repro
  check`` and the CI governance job.
* **documentation** — :func:`catalog_markdown` / :func:`catalog_json`
  render the byte-deterministic ``docs/METRICS.md`` and
  ``docs/metrics.json`` (``repro metrics catalog``).
* **dashboards** — :mod:`repro.obs.dash` generates Grafana dashboard
  JSON from the same declarations, one row per subsystem.

Stability levels: ``stable`` series are part of the repository's
observable contract (dashboards, SLOs, and the run report may depend on
them); ``experimental`` series may be renamed or dropped without a
deprecation cycle.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence, Tuple

from .registry import (
    CARDINALITY_REJECTED,
    DEFAULT_MAX_CHILDREN,
    MetricSpec,
    MetricsRegistry,
)

#: The character set Prometheus accepts in a metric name.
_NAME_RE = re.compile(r"^[a-z_:][a-z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Label names the Prometheus data model reserves for itself.
RESERVED_LABEL_NAMES = frozenset({"le", "quantile", "job", "instance"})

#: Magnitude buckets for record counts per batch.
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    100.0, 1_000.0, 10_000.0, 50_000.0, 100_000.0, 500_000.0,
    1_000_000.0, 5_000_000.0,
)

#: Unit suffixes the convention lint recognises.  A spec with a unit
#: must end its name with ``_<unit>`` (before the ``_total`` suffix for
#: counters, e.g. ``repro_kafka_records_consumed_total`` has unit
#: ``records`` carried in the middle — see :func:`lint_catalog`).
KNOWN_UNITS = ("seconds", "records", "count", "bytes", "ratio", "")

STABILITY_LEVELS = ("stable", "experimental")

KINDS = ("counter", "gauge", "histogram")


def _spec(
    name: str,
    kind: str,
    help: str,
    unit: str = "",
    labels: Sequence[str] = (),
    stability: str = "stable",
    buckets: Optional[Sequence[float]] = None,
    max_children: int = DEFAULT_MAX_CHILDREN,
) -> MetricSpec:
    subsystem = name.split("_")[1] if name.count("_") >= 2 else ""
    return MetricSpec(
        name=name,
        kind=kind,
        subsystem=subsystem,
        help=help,
        unit=unit,
        labels=tuple(labels),
        stability=stability,
        buckets=tuple(buckets) if buckets is not None else None,
        max_children=max_children,
    )


#: The catalog.  Keep sorted by (subsystem, name) within each block;
#: the generators re-sort defensively, so ordering here is for humans.
CATALOG: Tuple[MetricSpec, ...] = (
    # -- chaos ---------------------------------------------------------------
    _spec("repro_chaos_active_faults", "gauge",
          "Faults injected but not yet recovered"),
    _spec("repro_chaos_injections_total", "counter",
          "Fault events fired", labels=("kind",), max_children=16),
    _spec("repro_chaos_recoveries_total", "counter",
          "Fault events recovered", labels=("kind",), max_children=16),
    # -- check ---------------------------------------------------------------
    _spec("repro_check_checks_total", "counter",
          "Invariant checks evaluated"),
    _spec("repro_check_violations_total", "counter",
          "Runtime invariant violations detected",
          labels=("invariant",), max_children=16),
    # -- cluster -------------------------------------------------------------
    _spec("repro_cluster_executor_failures_total", "counter",
          "Unplanned executor losses (crash injection)"),
    _spec("repro_cluster_executors", "gauge",
          "Live executors in the pool"),
    _spec("repro_cluster_scale_ops_total", "counter",
          "Executor-count reconfigurations performed",
          labels=("direction",), max_children=2),
    # -- engine --------------------------------------------------------------
    _spec("repro_engine_jobs_total", "counter",
          "Jobs executed by the engine"),
    _spec("repro_engine_stage_seconds", "histogram",
          "Per-stage wall time inside a job", unit="seconds"),
    _spec("repro_engine_task_failures_total", "counter",
          "Task attempts that failed and were re-run"),
    # -- fast ----------------------------------------------------------------
    _spec("repro_fast_batches_total", "counter",
          "Batches completed by the fast-tier engine",
          labels=("mode",), max_children=2),
    _spec("repro_fast_prefetch_depth", "gauge",
          "Current adaptive prefetch block size"),
    _spec("repro_fast_prefetch_fills_total", "counter",
          "Prefetch block refills (vectorized cost computations)"),
    # -- kafka ---------------------------------------------------------------
    _spec("repro_kafka_consumer_lag_records", "gauge",
          "Records appended but not yet consumed",
          unit="records", labels=("topic",), max_children=32),
    _spec("repro_kafka_consumer_polls_total", "counter",
          "Offset-range poll calls"),
    _spec("repro_kafka_records_consumed_total", "counter",
          "Records pulled from the topic by the direct-stream consumer",
          unit="records", labels=("topic",), max_children=32),
    _spec("repro_kafka_records_produced_total", "counter",
          "Records appended to the topic by the producer",
          unit="records", labels=("topic",), max_children=32),
    _spec("repro_kafka_records_throttled_total", "counter",
          "Records withheld by the producer rate cap",
          unit="records", labels=("topic",), max_children=32),
    # -- nostop --------------------------------------------------------------
    _spec("repro_nostop_guarded_rounds_total", "counter",
          "SPSA rounds rolled back by the corrupted-measurement guard"),
    _spec("repro_nostop_resets_total", "counter",
          "Rate-shift resets fired by the paper's restart rule"),
    _spec("repro_nostop_rounds_total", "counter",
          "NoStop control rounds executed"),
    # -- obs -----------------------------------------------------------------
    CARDINALITY_REJECTED,
    _spec("repro_obs_emit_dropped_total", "counter",
          "Telemetry events dropped by the emission batcher on overflow"),
    _spec("repro_obs_emit_enqueued_total", "counter",
          "Telemetry events accepted into the emission batcher"),
    _spec("repro_obs_emit_flushed_total", "counter",
          "Telemetry events flushed to the sink"),
    _spec("repro_obs_emit_flushes_total", "counter",
          "Emission batcher flushes (interval, capacity, or close)"),
    _spec("repro_obs_emit_queue_length", "gauge",
          "Events pending in the emission batcher queue"),
    _spec("repro_obs_trace_evicted_total", "counter",
          "Traces discarded at finalization by the flight recorder "
          "(head-sampled out and not interesting, or ring-consumed)",
          labels=("reason",), max_children=8),
    _spec("repro_obs_trace_retained_total", "counter",
          "Traces kept at finalization by the flight recorder, by "
          "retention reason (sampled, chaos, slo, anomaly, reconfig, ...)",
          labels=("reason",), max_children=16),
    _spec("repro_obs_trace_sampled_total", "counter",
          "Traces pre-selected by deterministic SHA-256 head sampling"),
    _spec("repro_obs_trace_spans_dropped_total", "counter",
          "Spans consumed by the span ring (finished or unfinished) or "
          "finished after eviction (late_finish)",
          labels=("reason",), max_children=4),
    # -- runner --------------------------------------------------------------
    _spec("repro_runner_cache_hits_total", "counter",
          "Sweep cells served from cache"),
    _spec("repro_runner_cache_misses_total", "counter",
          "Sweep cells not in cache"),
    _spec("repro_runner_cache_self_heal_total", "counter",
          "Corrupt cache entries dropped and treated as misses"),
    _spec("repro_runner_cells_executed_total", "counter",
          "Sweep cells simulated"),
    _spec("repro_runner_cells_total", "counter",
          "Sweep cells processed"),
    _spec("repro_runner_journal_corrupt_total", "counter",
          "Corrupt journal lines skipped during replay"),
    _spec("repro_runner_sweep_seconds", "histogram",
          "Wall-clock per sweep run", unit="seconds"),
    # -- streaming -----------------------------------------------------------
    _spec("repro_streaming_batch_interval_seconds", "gauge",
          "Configured batch interval", unit="seconds"),
    _spec("repro_streaming_batch_records_count", "histogram",
          "Records per batch", unit="count",
          buckets=DEFAULT_COUNT_BUCKETS),
    _spec("repro_streaming_batches_dropped_total", "counter",
          "Batches evicted by the bounded batch queue"),
    _spec("repro_streaming_batches_total", "counter",
          "Completed micro-batches"),
    _spec("repro_streaming_end_to_end_delay_seconds", "histogram",
          "Mean record end-to-end delay per batch", unit="seconds"),
    _spec("repro_streaming_executors", "gauge",
          "Executors the streaming context is configured to use"),
    _spec("repro_streaming_processing_seconds", "histogram",
          "Batch processing time", unit="seconds"),
    _spec("repro_streaming_queue_length", "gauge",
          "Batches waiting in the queue"),
    _spec("repro_streaming_receiver_stall_windows_total", "counter",
          "Poll windows skipped because the receiver was stalled"),
    _spec("repro_streaming_reconfigurations_total", "counter",
          "Configuration changes applied by the context"),
    _spec("repro_streaming_records_total", "counter",
          "Records across completed batches", unit="records"),
    _spec("repro_streaming_scheduling_delay_seconds", "histogram",
          "Batch schedule delay", unit="seconds"),
    _spec("repro_streaming_unstable_batches_total", "counter",
          "Batches whose processing time exceeded their interval"),
    # -- supervisor ----------------------------------------------------------
    _spec("repro_supervisor_cell_failures_total", "counter",
          "Cells abandoned as CellFailure after exhausting retries"),
    _spec("repro_supervisor_journal_replays_total", "counter",
          "Sweep cells resumed from a write-ahead journal"),
    _spec("repro_supervisor_pool_rebuilds_total", "counter",
          "Worker processes respawned after a death or timeout kill"),
    _spec("repro_supervisor_retries_total", "counter",
          "Cell attempts retried"),
    _spec("repro_supervisor_timeouts_total", "counter",
          "Cell attempts timed out"),
    # -- tuner ---------------------------------------------------------------
    _spec("repro_tuner_penalized_total", "counter",
          "Non-finite objective observations clamped to the finite "
          "divergence penalty instead of aborting the run"),
)

#: Name → spec index over the catalog.
SPECS: Dict[str, MetricSpec] = {s.name: s for s in CATALOG}


def names(
    subsystem: Optional[Sequence[str]] = None,
    kind: Optional[str] = None,
) -> List[str]:
    """Catalog metric names, optionally filtered, sorted.

    This is the static replacement for hand-maintained name lists:
    consumers (the run report's resource section, dashboards) enumerate
    the catalog instead of repeating prefix strings.
    """
    subsys = tuple(subsystem) if subsystem is not None else None
    return sorted(
        s.name for s in CATALOG
        if (subsys is None or s.subsystem in subsys)
        and (kind is None or s.kind == kind)
    )


def spec_for(name: str) -> MetricSpec:
    try:
        return SPECS[name]
    except KeyError:
        raise KeyError(
            f"metric {name!r} is not in the catalog; declare it in "
            "repro.obs.catalog.CATALOG before instrumenting"
        ) from None


def instrument(registry: MetricsRegistry, name: str):
    """Create-or-get the instrument for a cataloged metric.

    This is the call-site entry point: help text, bucket bounds, label
    schema, and cardinality budget all come from the declaration, so a
    series cannot drift from its catalog entry.  Unlabeled specs return
    their one instrument; labeled specs return the family (bind children
    with ``.labels(...)``).
    """
    return registry.instrument(spec_for(name))


# -- governance --------------------------------------------------------------


def lint_catalog(catalog: Sequence[MetricSpec] = CATALOG) -> List[str]:
    """Convention lint over the declarations themselves.

    Rules: names use the Prometheus character set, are
    ``repro_<subsystem>_…`` and match the declared subsystem; counters
    end in ``_total`` and nothing else does; histograms carry a known
    unit whose suffix appears in the name;
    specs with a unit end in ``_<unit>`` (counters: ``_<unit>_total`` or
    ``_total`` with the unit mid-name); label names are lowercase
    identifiers and never shadow reserved Prometheus labels; names are
    unique; help text is present.
    """
    problems: List[str] = []
    seen: Dict[str, int] = {}
    for spec in catalog:
        n = spec.name
        seen[n] = seen.get(n, 0) + 1
        if not _NAME_RE.match(n):
            problems.append(f"{n}: invalid metric name (Prometheus "
                            "allows [a-z_:][a-z0-9_:]*)")
        if not n.startswith(f"repro_{spec.subsystem}_"):
            problems.append(
                f"{n}: name does not start with "
                f"repro_{spec.subsystem}_ (subsystem {spec.subsystem!r})"
            )
        if spec.kind not in KINDS:
            problems.append(f"{n}: unknown kind {spec.kind!r}")
        if spec.kind == "counter" and not n.endswith("_total"):
            problems.append(f"{n}: counter name must end in _total")
        if spec.kind != "counter" and n.endswith("_total"):
            problems.append(f"{n}: only counters may end in _total")
        if spec.unit not in KNOWN_UNITS:
            problems.append(
                f"{n}: unknown unit {spec.unit!r} "
                f"(expected one of {[u for u in KNOWN_UNITS if u]})"
            )
        elif spec.unit:
            stem = n[: -len("_total")] if n.endswith("_total") else n
            if not (stem.endswith(f"_{spec.unit}")
                    or f"_{spec.unit}_" in n):
                problems.append(
                    f"{n}: unit {spec.unit!r} does not appear as a "
                    f"_{spec.unit} suffix"
                )
        if spec.kind == "histogram" and not spec.unit:
            problems.append(f"{n}: histograms must declare a unit")
        if spec.stability not in STABILITY_LEVELS:
            problems.append(
                f"{n}: unknown stability {spec.stability!r}"
            )
        if not spec.help.strip():
            problems.append(f"{n}: empty help text")
        for ln in spec.labels:
            if not _LABEL_NAME_RE.match(ln):
                problems.append(f"{n}: invalid label name {ln!r}")
            elif ln in RESERVED_LABEL_NAMES:
                problems.append(f"{n}: label name {ln!r} is reserved")
        if len(set(spec.labels)) != len(spec.labels):
            problems.append(f"{n}: duplicate label names {spec.labels}")
        if spec.max_children < 1:
            problems.append(f"{n}: cardinality budget must be >= 1")
        if spec.buckets is not None and spec.kind != "histogram":
            problems.append(f"{n}: only histograms take buckets")
    problems.extend(
        f"{name}: declared {count} times in the catalog"
        for name, count in sorted(seen.items()) if count > 1
    )
    return sorted(problems)


def check_registry(
    registry: MetricsRegistry,
    catalog: Sequence[MetricSpec] = CATALOG,
) -> List[str]:
    """Diff a live registry against the catalog.

    One rule: every live family's spec must be the cataloged one.  It
    flags series the catalog does not know (the governance failure this
    subsystem exists to prevent) and any drift in kind, label schema,
    budget or help.  Catalog entries with no live series are fine — most
    runs exercise a subset of the stack.
    """
    specs = {s.name: s for s in catalog}
    problems: List[str] = []
    for family in registry.collect():
        spec = specs.get(family.name)
        if family.spec != spec:
            problems.append(f"{family.name}: " + (
                "live series not in the catalog" if spec is None
                else f"live spec {family.spec} != cataloged {spec}"
            ))
    return sorted(problems)


def governance_report(registry: MetricsRegistry) -> List[str]:
    """Full governance pass: catalog conventions + live-registry diff."""
    return lint_catalog() + check_registry(registry)


# -- generators --------------------------------------------------------------


def _sorted_catalog(
    catalog: Sequence[MetricSpec],
) -> List[Tuple[str, List[MetricSpec]]]:
    by_subsystem: Dict[str, List[MetricSpec]] = {}
    for spec in catalog:
        by_subsystem.setdefault(spec.subsystem, []).append(spec)
    return [
        (subsystem, sorted(by_subsystem[subsystem], key=lambda s: s.name))
        for subsystem in sorted(by_subsystem)
    ]


def catalog_markdown(catalog: Sequence[MetricSpec] = CATALOG) -> str:
    """``docs/METRICS.md`` content: byte-deterministic, one table per
    subsystem, generated — regenerate with ``repro metrics catalog``."""
    lines = [
        "# Metrics catalog",
        "",
        "<!-- Generated by `repro metrics catalog --write`. "
        "Do not edit by hand. -->",
        "",
        f"{len(catalog)} metrics across "
        f"{len({s.subsystem for s in catalog})} subsystems.  "
        "Labeled families declare an immutable label schema and a hard "
        "cardinality budget; over-budget label sets are rejected and "
        "counted on `repro_obs_cardinality_rejected_total`.",
        "",
    ]
    for subsystem, specs in _sorted_catalog(catalog):
        lines.append(f"## {subsystem}")
        lines.append("")
        lines.append(
            "| name | kind | unit | labels | budget | stability | help |"
        )
        lines.append("|---|---|---|---|---|---|---|")
        for s in specs:
            labels = ", ".join(s.labels) if s.labels else "—"
            budget = str(s.max_children) if s.labels else "—"
            unit = s.unit or "—"
            lines.append(
                f"| `{s.name}` | {s.kind} | {unit} | {labels} "
                f"| {budget} | {s.stability} | {s.help} |"
            )
        lines.append("")
    return "\n".join(lines)


def catalog_json(catalog: Sequence[MetricSpec] = CATALOG) -> str:
    """Machine-readable catalog (``docs/metrics.json``), sorted keys."""
    payload = {
        "metrics": [
            s.to_dict()
            for _, specs in _sorted_catalog(catalog) for s in specs
        ],
        "subsystems": sorted({s.subsystem for s in catalog}),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

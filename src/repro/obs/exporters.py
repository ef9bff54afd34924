"""Telemetry exporters: JSONL traces, Prometheus text, CLI renderings.

Three consumption paths for the same data:

* **JSONL** — one span per line, sorted keys, floats via ``repr``; the
  machine-readable archive format (``repro trace --out``) with an exact
  parse round-trip (:func:`parse_jsonl_spans`);
* **Prometheus text exposition** — a point-in-time snapshot of the
  metrics registry in the v0.0.4 text format, scrapeable as-is;
* **human renderings** — an indented per-trace timeline and a metrics
  summary table for terminal use.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from .registry import Histogram, MetricsRegistry
from .span import Span

# -- JSONL trace export ------------------------------------------------------


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line, in span-creation order."""
    return "\n".join(
        json.dumps(s.to_dict(), sort_keys=True) for s in spans
    )


def parse_jsonl_spans(text: str) -> List[Span]:
    """Parse :func:`spans_to_jsonl` output back into spans."""
    spans: List[Span] = []
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            spans.append(Span.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed span on line {i}: {exc}") from exc
    return spans


def save_spans(spans: Iterable[Span], path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spans_to_jsonl(spans) + "\n")
    return path


# -- Chrome Trace Event JSON (Perfetto / chrome://tracing) -------------------


def chrome_trace_json(spans: Sequence[Span]) -> str:
    """Chrome Trace Event JSON — load in Perfetto or chrome://tracing.

    One virtual thread per trace (so each batch renders as its own
    lane), named via ``thread_name`` metadata events.  Finished spans
    become complete (``X``) events with microsecond timestamps, spans
    still open at export time become unpaired begin (``B``) events, and
    span events (chaos injections, queue drops) become thread-scoped
    instant (``i``) events.  Output is byte-deterministic for a given
    span sequence: insertion-ordered events, sorted keys, compact
    separators.
    """
    tids: Dict[str, int] = {}
    for s in spans:
        if s.trace_id not in tids:
            tids[s.trace_id] = len(tids)
    events: List[Dict[str, object]] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": trace_id},
        }
        for trace_id, tid in tids.items()
    ]
    for s in spans:
        tid = tids[s.trace_id]
        args: Dict[str, object] = dict(s.attributes)
        args["spanId"] = s.span_id
        if s.parent_id is not None:
            args["parentId"] = s.parent_id
        event: Dict[str, object] = {
            "ph": "X" if s.finished else "B",
            "pid": 0,
            "tid": tid,
            "name": s.name,
            "cat": "batch",
            "ts": s.start * 1e6,
            "args": args,
        }
        if s.finished:
            event["dur"] = s.duration * 1e6
        events.append(event)
        for ev in s.events:
            events.append({
                "ph": "i",
                "pid": 0,
                "tid": tid,
                "name": ev.name,
                "cat": "event",
                "s": "t",
                "ts": ev.time * 1e6,
                "args": dict(ev.attributes),
            })
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def save_chrome_trace(spans: Sequence[Span], path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chrome_trace_json(spans) + "\n")
    return path


# -- folded stacks (flamegraph text) -----------------------------------------


def folded_stacks(spans: Sequence[Span]) -> str:
    """Folded-stack flamegraph text: ``root;child;leaf <self-µs>``.

    Each finished span contributes its *self* time (duration minus its
    finished children) in integer microseconds to the stack of names
    from its trace root down; identical stacks aggregate across traces.
    Lines are sorted lexicographically, so output is byte-deterministic.
    Unfinished spans carry no duration and are skipped.  Feed the result
    to any flamegraph renderer (e.g. ``flamegraph.pl`` or speedscope).
    """
    by_id = {s.span_id: s for s in spans}
    child_sum: Dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None and s.finished:
            child_sum[s.parent_id] = (
                child_sum.get(s.parent_id, 0.0) + s.duration
            )
    agg: Dict[str, int] = {}
    for s in spans:
        if not s.finished:
            continue
        names = [s.name]
        parent_id = s.parent_id
        while parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None:
                break
            names.append(parent.name)
            parent_id = parent.parent_id
        stack = ";".join(reversed(names))
        self_time = max(0.0, s.duration - child_sum.get(s.span_id, 0.0))
        agg[stack] = agg.get(stack, 0) + int(round(self_time * 1e6))
    return "\n".join(
        f"{stack} {value}" for stack, value in sorted(agg.items())
    )


def save_folded(spans: Sequence[Span], path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(folded_stacks(spans) + "\n")
    return path


# -- Prometheus text exposition ----------------------------------------------


def _fmt(value: float) -> str:
    """Prometheus sample value: integers without a trailing .0."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def escape_label_value(value: str) -> str:
    """Escape a label value per the text-exposition rules.

    Backslash, double quote, and line feed are the only characters the
    format escapes (``\\\\``, ``\\"``, ``\\n``); everything else passes
    through verbatim.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def escape_help_text(text: str) -> str:
    """Escape HELP text: backslash and line feed only (quotes are legal)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def label_fragment(
    labelnames: Sequence[str],
    values: Sequence[str],
    extra: Optional[str] = None,
) -> str:
    """``{k="v",…}`` sample-line fragment with escaped label values;
    empty when there are no labels."""
    pairs = [
        f'{k}="{escape_label_value(v)}"'
        for k, v in zip(labelnames, values)
    ]
    if extra is not None:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _histogram_lines(
    name: str,
    hist: Histogram,
    lines: List[str],
    labelnames: Sequence[str] = (),
    values: Sequence[str] = (),
) -> None:
    """Bucket/sum/count samples for one histogram (child), labels first,
    ``le`` last, and the mandatory ``+Inf`` bucket always present."""
    cumulative = hist.cumulative_counts()
    for bound, count in zip(hist.bounds, cumulative):
        frag = label_fragment(
            labelnames, values, extra=f'le="{_fmt(bound)}"'
        )
        lines.append(f"{name}_bucket{frag} {count}")
    inf_frag = label_fragment(labelnames, values, extra='le="+Inf"')
    lines.append(f"{name}_bucket{inf_frag} {hist.count}")
    suffix_frag = label_fragment(labelnames, values)
    lines.append(f"{name}_sum{suffix_frag} {_fmt(hist.sum)}")
    lines.append(f"{name}_count{suffix_frag} {hist.count}")


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format v0.0.4.

    Labeled families render one ``HELP``/``TYPE`` pair followed by a
    sample per child, children sorted by label values (deterministic); a
    family with no children yet renders just its metadata lines.  An
    empty registry renders to the empty string — callers writing
    snapshot files should treat that as "nothing to export" rather than
    producing a zero-byte scrape file.
    """
    lines: List[str] = []
    for family in registry.collect():
        spec = family.spec
        name = spec.name
        lines.append(f"# HELP {name} {escape_help_text(spec.help or name)}")
        lines.append(f"# TYPE {name} {spec.kind}")
        for values, child in family.children():
            if spec.kind == "histogram":
                _histogram_lines(
                    name, child, lines,  # type: ignore[arg-type]
                    labelnames=spec.labels, values=values,
                )
            else:
                frag = label_fragment(spec.labels, values)
                lines.append(f"{name}{frag} {_fmt(child.value)}")  # type: ignore[attr-defined]
    return "\n".join(lines) + "\n" if lines else ""


# -- human renderings --------------------------------------------------------


def _render_span(
    span: Span,
    children_index: Dict[Optional[int], List[Span]],
    depth: int,
    lines: List[str],
) -> None:
    pad = "  " * depth
    end = "…" if span.end is None else f"{span.end:.3f}"
    lines.append(
        f"{pad}{span.name}  [{span.start:.3f} → {end}]"
        f"  ({span.duration:.3f}s)"
        + (f"  {span.attributes}" if span.attributes else "")
    )
    for ev in span.events:
        lines.append(f"{pad}  • {ev.name} @ {ev.time:.3f}  {ev.attributes}")
    for child in children_index.get(span.span_id, []):
        _render_span(child, children_index, depth + 1, lines)


def render_timeline(
    spans: Sequence[Span], last_n_traces: Optional[int] = None
) -> str:
    """Indented per-trace tree with durations and span events."""
    by_trace: Dict[str, List[Span]] = {}
    order: List[str] = []
    for s in spans:
        if s.trace_id not in by_trace:
            order.append(s.trace_id)
        by_trace.setdefault(s.trace_id, []).append(s)
    if last_n_traces is not None:
        order = order[-last_n_traces:]
    lines: List[str] = []
    for trace_id in order:
        trace_spans = by_trace[trace_id]
        children: Dict[Optional[int], List[Span]] = {}
        for s in trace_spans:
            children.setdefault(s.parent_id, []).append(s)
        lines.append(f"trace {trace_id}")
        for root in children.get(None, []):
            _render_span(root, children, 1, lines)
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def _summary_line(name: str, metric: object) -> str:
    if isinstance(metric, Histogram):
        p50 = metric.quantile(0.50)
        p95 = metric.quantile(0.95)
        p99 = metric.quantile(0.99)
        mean = metric.sum / metric.count if metric.count else 0.0
        return (
            f"{name}: n={metric.count} mean={mean:.3f} "
            f"p50~{p50:.3f} p95~{p95:.3f} p99~{p99:.3f}"
        )
    return f"{name}: {_fmt(metric.value)}"  # type: ignore[attr-defined]


def render_metrics_summary(registry: MetricsRegistry) -> str:
    """Terminal-friendly summary: one line per family child."""
    lines: List[str] = []
    for family in registry.collect():
        name = family.name
        if not len(family):
            lines.append(f"{name}: (no children)")
        for values, child in family.children():
            frag = label_fragment(family.spec.labels, values)
            lines.append(_summary_line(f"{name}{frag}", child))
        if family.rejected:
            lines.append(
                f"{name}: {family.rejected} label set(s) "
                f"rejected over budget ({family.spec.max_children})"
            )
    return "\n".join(lines)

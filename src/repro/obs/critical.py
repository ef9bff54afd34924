"""Critical-path analytics over batch traces (DESIGN.md §16).

NoStop's premise is that end-to-end delay decomposes into queue wait +
scheduling + processing (the §5 delay model).  The tracer records that
decomposition — one trace per micro-batch whose root is tiled exactly by
its ``ingest`` / ``queue`` / ``schedule`` / ``execute`` children — and
this module *analyzes* it:

* :func:`decompose` tiles one trace's root duration into the four
  segments and extracts the **critical path** (the longest-duration
  chain of spans from the root to a leaf);
* :func:`analyze_spans` aggregates decompositions into a deterministic
  "where the delay went" table, split into **epochs** at each
  reconfiguration so before/after comparisons fall out directly;
* :func:`steady_state_agreement` cross-checks the aggregated
  wait/schedule/execute decomposition against the steady-state delay
  identity (``E[e2e] = interval/2 + scheduling delay + processing
  time``) that ``check/oracles.py`` validates from the batch side.

Everything here is pure over ``Span`` values, so it works identically on
a live tracer's spans and on spans reloaded from ``repro trace --out``
JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .span import Span

#: Direct children of a batch root that tile its duration, in timeline
#: order: the arrival window, the queue wait, then the scheduler's
#: setup/coordination slices interleaved with stage execution.
SEGMENT_SPANS = ("ingest", "queue", "schedule", "execute")

#: Allowed residual of the steady-state delay identity, as a fraction of
#: the mean batch interval (covers non-uniform arrivals when the rate
#: trace steps mid-interval).  The batch-side oracle
#: (``repro.check.oracles``) and the trace-side agreement check share it.
STEADY_STATE_REL_TOL = 0.15


@dataclass(frozen=True)
class CriticalStep:
    """One span on a trace's critical path."""

    name: str
    start: float
    duration: float


@dataclass(frozen=True)
class TraceDecomposition:
    """One batch trace tiled into the §5 delay-model segments."""

    trace_id: str
    start: float
    end: float
    ingest: float
    queue: float
    schedule: float
    execute: float
    complete: bool
    """All four segments present under a finished, non-partial root —
    only complete decompositions enter aggregate segment tables."""
    dropped: bool
    """Queue-evicted batch: the root finished at the boundary with no
    processing spans."""
    partial: bool
    """The flight recorder evicted unfinished spans of this trace."""
    batch_index: Optional[int]
    records: Optional[int]
    interval: Optional[float]
    executors: Optional[int]
    scheduling_delay: Optional[float]
    processing_time: Optional[float]
    first_after_reconfig: bool
    critical_path: Tuple[CriticalStep, ...]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def segment_sum(self) -> float:
        return self.ingest + self.queue + self.schedule + self.execute

    @property
    def residual(self) -> float:
        """Root duration minus the segment tiling (≈0 when complete)."""
        return self.duration - self.segment_sum

    @property
    def expected_delay(self) -> float:
        """Per-trace steady-state identity: with uniform arrivals a
        record waits ``ingest/2`` on average, then the queue, then the
        scheduler and executor — the trace-side twin of the oracle's
        ``interval/2 + scheduling delay + processing time``."""
        return self.ingest / 2.0 + self.queue + self.schedule + self.execute


def group_spans_by_trace(
    spans: Sequence[Span],
) -> Dict[str, List[Span]]:
    """Spans keyed by trace id, first-seen order, creation order within."""
    by_trace: Dict[str, List[Span]] = {}
    for s in spans:
        by_trace.setdefault(s.trace_id, []).append(s)
    return by_trace


def critical_path(spans: Sequence[Span]) -> List[Span]:
    """The longest chain through one trace's span tree.

    Greedy maximum-duration descent from the root: at each node the
    longest-duration child continues the chain (ties break to the
    earliest-created child, so the walk is deterministic).  Returns the
    root-to-leaf spans, root first; empty when the trace has no root.
    """
    children: Dict[Optional[int], List[Span]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    roots = children.get(None, [])
    if not roots:
        return []
    node = max(roots, key=lambda s: (s.duration, -s.span_id))
    path = [node]
    while True:
        kids = children.get(node.span_id)
        if not kids:
            return path
        node = max(kids, key=lambda s: (s.duration, -s.span_id))
        path.append(node)


def decompose(spans: Sequence[Span]) -> Optional[TraceDecomposition]:
    """Tile one trace's root span into the delay-model segments.

    Returns None when the trace has no finished root (still in flight,
    or its root was ring-evicted).  ``spans`` must belong to a single
    trace (use :func:`decompose_spans` for a mixed collection).
    """
    root = next(
        (s for s in spans if s.parent_id is None and s.finished), None
    )
    if root is None:
        return None
    totals = dict.fromkeys(SEGMENT_SPANS, 0.0)
    counts = dict.fromkeys(SEGMENT_SPANS, 0)
    for s in spans:
        if s.parent_id == root.span_id and s.name in totals:
            totals[s.name] += s.duration
            counts[s.name] += 1
    attrs = root.attributes
    dropped = bool(attrs.get("dropped"))
    partial = bool(attrs.get("partial"))
    complete = (
        not partial
        and not dropped
        and all(counts[name] > 0 for name in SEGMENT_SPANS)
    )
    path = tuple(
        CriticalStep(name=s.name, start=s.start, duration=s.duration)
        for s in critical_path(spans)
    )

    def _float(key: str) -> Optional[float]:
        v = attrs.get(key)
        return float(v) if isinstance(v, (int, float)) else None

    def _int(key: str) -> Optional[int]:
        v = attrs.get(key)
        return int(v) if isinstance(v, (int, float)) else None

    return TraceDecomposition(
        trace_id=root.trace_id,
        start=root.start,
        end=root.end if root.end is not None else root.start,
        ingest=totals["ingest"],
        queue=totals["queue"],
        schedule=totals["schedule"],
        execute=totals["execute"],
        complete=complete,
        dropped=dropped,
        partial=partial,
        batch_index=_int("batch_index"),
        records=_int("records"),
        interval=_float("interval"),
        executors=_int("executors"),
        scheduling_delay=_float("scheduling_delay"),
        processing_time=_float("processing_time"),
        first_after_reconfig=bool(attrs.get("first_after_reconfig")),
        critical_path=path,
    )


def decompose_spans(spans: Sequence[Span]) -> List[TraceDecomposition]:
    """Decompose every trace in a mixed span collection.

    Traces without a finished root are skipped; results are ordered by
    root start time (ties by trace id) so aggregation is deterministic
    regardless of store ordering.
    """
    out = []
    for trace_spans in group_spans_by_trace(spans).values():
        d = decompose(trace_spans)
        if d is not None:
            out.append(d)
    out.sort(key=lambda d: (d.start, d.trace_id))
    return out


# -- aggregation -------------------------------------------------------------


@dataclass(frozen=True)
class SegmentStat:
    """One row of a "where the delay went" table."""

    name: str
    total: float
    count: int
    share: float
    """Fraction of the table's total time attributed to this row."""

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "total": self.total,
            "count": self.count,
            "mean": self.mean,
            "share": self.share,
        }


def _segment_table(decomps: Sequence[TraceDecomposition]) -> List[SegmentStat]:
    totals = dict.fromkeys(SEGMENT_SPANS, 0.0)
    n = 0
    for d in decomps:
        if not d.complete:
            continue
        n += 1
        totals["ingest"] += d.ingest
        totals["queue"] += d.queue
        totals["schedule"] += d.schedule
        totals["execute"] += d.execute
    grand = sum(totals.values())
    return [
        SegmentStat(
            name=name,
            total=totals[name],
            count=n,
            share=totals[name] / grand if grand else 0.0,
        )
        for name in SEGMENT_SPANS
    ]


def _critical_table(
    decomps: Sequence[TraceDecomposition],
) -> List[SegmentStat]:
    """Per-span-name contribution to the critical paths."""
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for d in decomps:
        for step in d.critical_path:
            totals[step.name] = totals.get(step.name, 0.0) + step.duration
            counts[step.name] = counts.get(step.name, 0) + 1
    grand = sum(totals.values())
    rows = [
        SegmentStat(
            name=name,
            total=totals[name],
            count=counts[name],
            share=totals[name] / grand if grand else 0.0,
        )
        for name in totals
    ]
    rows.sort(key=lambda r: (-r.total, r.name))
    return rows


@dataclass(frozen=True)
class Epoch:
    """A run of batches under one configuration (between reconfigs)."""

    index: int
    interval: Optional[float]
    executors: Optional[int]
    traces: int
    complete: int
    dropped: int
    partial: int
    segments: Tuple[SegmentStat, ...]
    critical: Tuple[SegmentStat, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "interval": self.interval,
            "executors": self.executors,
            "traces": self.traces,
            "complete": self.complete,
            "dropped": self.dropped,
            "partial": self.partial,
            "segments": [s.to_dict() for s in self.segments],
            "critical": [s.to_dict() for s in self.critical],
        }


@dataclass(frozen=True)
class DelayBreakdown:
    """The full "where the delay went" analysis for one run."""

    traces: int
    complete: int
    dropped: int
    partial: int
    max_tiling_residual: float
    segments: Tuple[SegmentStat, ...]
    critical: Tuple[SegmentStat, ...]
    epochs: Tuple[Epoch, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "traces": self.traces,
            "complete": self.complete,
            "dropped": self.dropped,
            "partial": self.partial,
            "maxTilingResidual": self.max_tiling_residual,
            "segments": [s.to_dict() for s in self.segments],
            "critical": [s.to_dict() for s in self.critical],
            "epochs": [e.to_dict() for e in self.epochs],
        }


def split_epochs(
    decomps: Sequence[TraceDecomposition],
) -> List[List[TraceDecomposition]]:
    """Split a start-ordered decomposition list at each reconfiguration.

    A new epoch opens at a ``first_after_reconfig`` batch or whenever the
    (interval, executors) attributes change between consecutive batches;
    traces without config attributes (dropped batches) ride in whichever
    epoch they fall.
    """
    epochs: List[List[TraceDecomposition]] = []
    current: List[TraceDecomposition] = []
    config: Optional[Tuple[float, int]] = None
    for d in decomps:
        d_config = (
            (d.interval, d.executors)
            if d.interval is not None and d.executors is not None
            else None
        )
        boundary = d.first_after_reconfig or (
            d_config is not None and config is not None and d_config != config
        )
        if boundary and current:
            epochs.append(current)
            current = []
        current.append(d)
        if d_config is not None:
            config = d_config
    if current:
        epochs.append(current)
    return epochs


def _epoch_summary(
    index: int, decomps: Sequence[TraceDecomposition]
) -> Epoch:
    interval: Optional[float] = None
    executors: Optional[int] = None
    for d in decomps:
        if d.interval is not None and d.executors is not None:
            interval, executors = d.interval, d.executors
            break
    return Epoch(
        index=index,
        interval=interval,
        executors=executors,
        traces=len(decomps),
        complete=sum(1 for d in decomps if d.complete),
        dropped=sum(1 for d in decomps if d.dropped),
        partial=sum(1 for d in decomps if d.partial),
        segments=tuple(_segment_table(decomps)),
        critical=tuple(_critical_table(decomps)),
    )


def analyze_decompositions(
    decomps: Sequence[TraceDecomposition],
) -> DelayBreakdown:
    epoch_lists = split_epochs(decomps)
    return DelayBreakdown(
        traces=len(decomps),
        complete=sum(1 for d in decomps if d.complete),
        dropped=sum(1 for d in decomps if d.dropped),
        partial=sum(1 for d in decomps if d.partial),
        max_tiling_residual=max(
            (abs(d.residual) for d in decomps if d.complete), default=0.0
        ),
        segments=tuple(_segment_table(decomps)),
        critical=tuple(_critical_table(decomps)),
        epochs=tuple(
            _epoch_summary(i + 1, ds) for i, ds in enumerate(epoch_lists)
        ),
    )


def analyze_spans(spans: Sequence[Span]) -> DelayBreakdown:
    """One-call entry: group, decompose, and aggregate a span store."""
    return analyze_decompositions(decompose_spans(spans))


# -- oracle cross-check ------------------------------------------------------


@dataclass(frozen=True)
class OracleAgreement:
    """Trace-side decomposition vs. the batch-side steady-state oracle."""

    expected: float
    """Mean per-trace ``ingest/2 + queue + schedule + execute``."""
    actual: float
    """Mean observed end-to-end delay of the matched batches."""
    tolerance: float
    samples: int

    @property
    def ok(self) -> bool:
        return self.samples == 0 or abs(
            self.expected - self.actual
        ) <= self.tolerance


def steady_state_agreement(
    decomps: Sequence[TraceDecomposition],
    batches: Sequence,
) -> OracleAgreement:
    """Check the trace decomposition against the steady-state identity.

    Matches complete, non-reconfig decompositions to ``BatchInfo``
    records by batch index and compares the mean per-trace expected
    delay (``ingest/2 + queue + schedule + execute``) to the mean
    observed end-to-end delay, within :data:`STEADY_STATE_REL_TOL` of the
    mean interval, the batch-side oracle's tolerance.
    """
    by_index = {b.batch_index: b for b in batches}
    expected_sum = actual_sum = interval_sum = 0.0
    n = 0
    for d in decomps:
        if not d.complete or d.first_after_reconfig or d.batch_index is None:
            continue
        b = by_index.get(d.batch_index)
        if b is None or b.records <= 0:
            continue
        expected_sum += d.expected_delay
        actual_sum += b.end_to_end_delay
        interval_sum += b.interval
        n += 1
    if n == 0:
        return OracleAgreement(
            expected=0.0, actual=0.0, tolerance=0.0, samples=0
        )
    return OracleAgreement(
        expected=expected_sum / n,
        actual=actual_sum / n,
        tolerance=STEADY_STATE_REL_TOL * interval_sum / n,
        samples=n,
    )


"""The flight-recorder tracer and the :class:`Telemetry` hub.

The tracer owns span identity (a monotonic counter — deterministic under
the seeded sim clock, unlike random ids) and the span store.  Components
receive the tracer explicitly through their constructors and parent new
spans off an explicit :class:`~repro.obs.span.TraceContext`; there is no
ambient "current span" global.

The store is a **flight recorder**, not a keep-everything archive:

* **Ring bound** — at most ``max_spans`` spans are live; the globally
  oldest span is evicted in O(1) (finalized traces first, in
  finalization order, then the oldest still-open trace).  Evicting an
  unfinished span marks its trace *partial* and is accounted separately
  (``dropped_unfinished``); a ``finish_span`` arriving for an
  already-evicted span is counted too (``late_finishes``) instead of
  being silently swallowed.
* **Deterministic head sampling** — each trace is pre-selected by
  ``SHA-256(trace_id) mod sample_rate == 0``.  The decision depends only
  on the trace id, so the same traces are kept across runs, processes,
  and replays under a fixed seed.
* **Tail-based retention** — every trace is recorded provisionally and
  its fate decided at *finalization* (when its root has finished, on the
  next ``start_trace`` or an explicit :meth:`Tracer.finalize_all`).
  Interesting traces are always kept, even when head sampling would
  discard them: traces carrying ``chaos.*`` span events, traces
  overlapping a :meth:`Tracer.note_interest` window (SLO breaches,
  detector anomalies, NoStop pause/resume/reset/reconfig decisions).
  Everything else that fails head sampling is discarded wholesale and
  accounted as an evicted trace.

All accounting lands on the cataloged ``repro_obs_trace_*`` metric
families when the tracer is constructed with a registry (the
:class:`Telemetry` hub does this).

``Telemetry`` bundles the three telemetry surfaces of the subsystem —
tracer, metrics registry, SPSA audit trail — behind a single object that
is threaded through the stack.  :data:`NOOP_TELEMETRY` is the shared
disabled instance every component defaults to; its hot-path cost is one
``enabled`` check or an empty method call.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from . import catalog
from .audit import AuditTrail
from .registry import NOOP_REGISTRY, MetricsRegistry
from .span import NOOP_SPAN, Span, TraceContext

ParentLike = Union[Span, TraceContext, None]

#: Retention reason for traces kept by head sampling alone.
RETAIN_SAMPLED = "sampled"
#: Retention reason for traces carrying ``chaos.*`` span events.
RETAIN_CHAOS = "chaos"
#: Eviction reason for traces that failed head sampling and matched no
#: interest window.
EVICT_SAMPLED_OUT = "sampled_out"
#: Eviction reason for traces whose spans were all consumed by the ring.
EVICT_RING = "ring"


class _InterestIndex:
    """Interest windows in insertion order, indexed for first-overlap
    queries.

    A segment tree over insertion order holds each node's smallest window
    start and largest window end.  :meth:`first_overlap` descends
    leftmost first and skips every subtree that cannot overlap the query,
    so it returns what a scan in insertion order would.  Windows are
    noted near the simulated time they cover, so old subtrees fall away
    near the root and a query costs about O(log windows), not a scan.
    """

    __slots__ = ("windows", "_cap", "_lo", "_hi")

    def __init__(self) -> None:
        self.windows: List[Tuple[float, float, str]] = []
        self._cap = 1
        self._lo = [math.inf] * 2
        self._hi = [-math.inf] * 2

    def append(self, window: Tuple[float, float, str]) -> None:
        self.windows.append(window)
        if len(self.windows) <= self._cap:
            self._insert(len(self.windows) - 1, window)
            return
        self._cap *= 2
        self._lo = [math.inf] * (2 * self._cap)
        self._hi = [-math.inf] * (2 * self._cap)
        for i, w in enumerate(self.windows):
            self._insert(i, w)

    def _insert(self, i: int, window: Tuple[float, float, str]) -> None:
        # Strict comparisons are False for NaN, so a NaN bound (which
        # never overlaps anything) never enters the tree.
        w_lo, w_hi = window[0], window[1]
        lo, hi = self._lo, self._hi
        node = i + self._cap
        while node:
            if w_lo < lo[node]:
                lo[node] = w_lo
            if w_hi > hi[node]:
                hi[node] = w_hi
            node >>= 1

    def first_overlap(self, lo: float, hi: float) -> Optional[str]:
        """Reason of the first-noted window overlapping ``[lo, hi]``."""
        windows, cap = self.windows, self._cap
        mins, maxs = self._lo, self._hi
        stack = [1]
        while stack:
            node = stack.pop()
            if mins[node] > hi or maxs[node] < lo:
                continue
            if node < cap:
                stack.append(2 * node + 1)
                stack.append(2 * node)
                continue
            i = node - cap
            if i < len(windows):
                w_lo, w_hi, reason = windows[i]
                if w_lo <= hi and w_hi >= lo:
                    return reason
        return None


class Tracer:
    """Span factory and flight-recorder store for batch-lifecycle traces.

    Parameters
    ----------
    enabled:
        When False every ``start_*`` call returns the shared no-op span.
    task_detail:
        Opt-in per-task execution spans (potentially thousands per batch);
        instrumentation sites check this flag before emitting task spans.
    max_spans:
        Ring bound on live spans so week-long simulated runs cannot grow
        memory without limit; the newest spans win.
    sample_rate:
        Deterministic head-sampling rate: a trace is pre-selected iff
        ``SHA-256(trace_id) mod sample_rate == 0``.  ``1`` (the default)
        keeps every trace.
    retain_interesting:
        Tail-based retention switch.  When True (default), traces with
        ``chaos.*`` span events and traces overlapping a
        :meth:`note_interest` window survive finalization even when head
        sampling would discard them.
    registry:
        Destination for the cataloged ``repro_obs_trace_*`` accounting
        families; defaults to the no-op registry.
    """

    def __init__(
        self,
        enabled: bool = True,
        task_detail: bool = False,
        max_spans: int = 200_000,
        sample_rate: int = 1,
        retain_interesting: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        if sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        self.enabled = enabled
        self.task_detail = task_detail
        self.max_spans = max_spans
        self.sample_rate = int(sample_rate)
        self.retain_interesting = retain_interesting
        reg = registry if registry is not None else NOOP_REGISTRY
        self._m_sampled = catalog.instrument(
            reg, "repro_obs_trace_sampled_total"
        )
        self._m_retained = catalog.instrument(
            reg, "repro_obs_trace_retained_total"
        )
        self._m_evicted = catalog.instrument(
            reg, "repro_obs_trace_evicted_total"
        )
        self._m_span_drops = catalog.instrument(
            reg, "repro_obs_trace_spans_dropped_total"
        )
        #: Optional hook fired at finalization for every retained trace:
        #: ``on_retained(trace_id, spans, reason)``.  The Telemetry hub
        #: wires this to the emission batcher.
        self.on_retained: Optional[Callable[[str, List[Span], str], None]] = (
            None
        )
        self._reset_state()

    def _reset_state(self) -> None:
        #: Finalized retained spans in ring-eviction order (finalization
        #: order; within a trace, creation order).  Only used to drive
        #: O(1) eviction — queries go through ``_by_trace``.
        self._archive: Deque[Span] = deque()
        #: Per-trace span buffers (open and retained traces alike), in
        #: trace-creation order; entries are pruned when they empty.
        self._by_trace: Dict[str, Deque[Span]] = {}
        #: Open (not yet finalized) traces: trace id → root span.
        self._open: Dict[str, Span] = {}
        self._head_keep: Dict[str, bool] = {}
        self._partial: Dict[str, bool] = {}
        self._interest = _InterestIndex()
        self._by_id: Dict[int, Span] = {}
        self._next_span_id = 1
        self._open_span_count = 0
        #: Spans consumed by the ring bound (any reason).
        self.dropped_spans = 0
        #: Subset of ``dropped_spans`` that were still unfinished.
        self.dropped_unfinished = 0
        #: ``finish_span`` calls that arrived after their span was evicted.
        self.late_finishes = 0
        #: Traces pre-selected by head sampling.
        self.sampled_traces = 0
        #: Traces kept / discarded at finalization, with per-reason splits.
        self.retained_traces = 0
        self.evicted_traces = 0
        self.retained_by_reason: Dict[str, int] = {}
        self.evicted_by_reason: Dict[str, int] = {}

    # -- span creation -------------------------------------------------------

    def _new_span(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[int],
        start: float,
        attributes: Dict[str, object],
    ) -> Span:
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=parent_id,
            name=name,
            start=start,
            attributes=attributes,
        )
        self._next_span_id += 1
        while len(self._archive) + self._open_span_count >= self.max_spans:
            self._evict_one_span()
        buf = self._by_trace.get(trace_id)
        if buf is None:
            buf = self._by_trace[trace_id] = deque()
        buf.append(span)
        if parent_id is not None and trace_id not in self._open and len(buf) > 1:
            # Late child of an already-finalized retained trace: keep the
            # archive (eviction order) in lockstep with the buffer.
            self._archive.append(span)
        else:
            self._open_span_count += 1
        self._by_id[span.span_id] = span
        return span

    def start_trace(
        self, name: str, trace_id: str, start: float, **attributes: object
    ) -> Span:
        """Open a root span, beginning a new trace.

        Opening a trace also finalizes every earlier trace whose root has
        finished — the point where sampling and tail-based retention
        decide each trace's fate.
        """
        if not self.enabled:
            return NOOP_SPAN  # type: ignore[return-value]
        self._finalize_decidable()
        span = self._new_span(name, trace_id, None, start, dict(attributes))
        self._open[trace_id] = span
        keep = self._head_sampled(trace_id)
        self._head_keep[trace_id] = keep
        if keep:
            self.sampled_traces += 1
            self._m_sampled.inc()
        return span

    def start_span(
        self, name: str, parent: ParentLike, start: float, **attributes: object
    ) -> Span:
        """Open a child span under ``parent`` (a span or a trace context)."""
        if not self.enabled or parent is None or parent is NOOP_SPAN:
            return NOOP_SPAN  # type: ignore[return-value]
        return self._new_span(
            name, parent.trace_id, parent.span_id, start, dict(attributes)
        )

    # -- sampling and retention ----------------------------------------------

    def _head_sampled(self, trace_id: str) -> bool:
        """Deterministic head-sampling decision for one trace id."""
        if self.sample_rate <= 1:
            return True
        digest = hashlib.sha256(trace_id.encode("utf-8")).hexdigest()
        return int(digest, 16) % self.sample_rate == 0

    def note_interest(self, start: float, end: float, reason: str) -> None:
        """Declare ``[start, end]`` (sim seconds) interesting.

        Any trace overlapping the window survives finalization with
        ``reason`` as its retention label, regardless of head sampling.
        Instrumentation sites call this for SLO breaches, detector
        anomalies, chaos outage windows, and NoStop audit decisions.
        """
        if not self.enabled:
            return
        lo, hi = float(start), float(end)
        if hi < lo:
            lo, hi = hi, lo
        self._interest.append((lo, hi, str(reason)))

    def _retention_reason(
        self, root: Span, spans: List[Span], head: bool
    ) -> Optional[str]:
        """The reason this trace survives finalization, or None to evict."""
        if self.retain_interesting:
            chaos = False
            lo = root.start
            hi = root.end if root.end is not None else root.start
            for s in spans:
                if s.events and not chaos:
                    chaos = any(ev.name.startswith("chaos.") for ev in s.events)
                lo = min(lo, s.start)
                hi = max(hi, s.start if s.end is None else s.end)
            if chaos:
                return RETAIN_CHAOS
            reason = self._interest.first_overlap(lo, hi)
            if reason is not None:
                return reason
        return RETAIN_SAMPLED if head else None

    def _finalize_decidable(self) -> None:
        """Finalize every open trace whose fate is decidable.

        Decidable means the root has finished, or the root itself was
        consumed by the ring (it can never finish through the tracer, so
        deferring further would leak the open-trace entry).
        """
        done = [
            tid
            for tid, root in self._open.items()
            if root.finished or root.span_id not in self._by_id
        ]
        for tid in done:
            self._finalize_trace(tid)

    def finalize_all(self) -> None:
        """Flush retention decisions for every decidable open trace.

        Call after a run completes (the CLI and report builders do) so
        the last trace's fate is decided without waiting for a next
        ``start_trace``.  Traces whose root is still unfinished stay
        open and visible.
        """
        if self.enabled:
            self._finalize_decidable()

    def _finalize_trace(self, tid: str) -> None:
        root = self._open.pop(tid)
        head = self._head_keep.pop(tid, False)
        partial = self._partial.pop(tid, False)
        buf = self._by_trace.get(tid)
        spans = list(buf) if buf else []
        if partial:
            root.set_attribute("partial", True)
        reason = self._retention_reason(root, spans, head)
        if reason is None or not spans:
            for s in spans:
                self._by_id.pop(s.span_id, None)
            if buf is not None:
                del self._by_trace[tid]
            self._open_span_count -= len(spans)
            evict_reason = EVICT_RING if not spans else EVICT_SAMPLED_OUT
            self.evicted_traces += 1
            self.evicted_by_reason[evict_reason] = (
                self.evicted_by_reason.get(evict_reason, 0) + 1
            )
            self._m_evicted.labels(reason=evict_reason).inc()
            return
        self._archive.extend(spans)
        self._open_span_count -= len(spans)
        self.retained_traces += 1
        self.retained_by_reason[reason] = (
            self.retained_by_reason.get(reason, 0) + 1
        )
        self._m_retained.labels(reason=reason).inc()
        cb = self.on_retained
        if cb is not None:
            cb(tid, spans, reason)

    # -- ring eviction -------------------------------------------------------

    def _evict_one_span(self) -> None:
        """Evict the globally oldest live span in O(1).

        Finalized (retained) spans go first, in finalization order; when
        none remain, the oldest open trace loses its oldest span.  The
        archive front and its trace-buffer front are the same span by
        construction, so both pops are O(1).
        """
        if self._archive:
            span = self._archive.popleft()
            buf = self._by_trace.get(span.trace_id)
            if buf and buf[0] is span:
                buf.popleft()
                if not buf:
                    del self._by_trace[span.trace_id]
            self._drop_span(span)
            return
        # No retained spans left: every _by_trace entry is an open trace.
        tid = next(iter(self._by_trace))
        buf = self._by_trace[tid]
        span = buf.popleft()
        if not buf:
            del self._by_trace[tid]
        self._open_span_count -= 1
        self._drop_span(span)

    def _drop_span(self, span: Span) -> None:
        self._by_id.pop(span.span_id, None)
        self.dropped_spans += 1
        if span.finished:
            self._m_span_drops.labels(reason="ring").inc()
        else:
            self.dropped_unfinished += 1
            self._m_span_drops.labels(reason="unfinished").inc()
            self._partial[span.trace_id] = True

    # -- context plumbing ----------------------------------------------------

    def span_for(self, ctx: Optional[TraceContext]) -> Span:
        """Resolve a propagated context back to its live span.

        Returns the no-op span for None / disabled / already-evicted
        contexts so call sites never need a null check.
        """
        if not self.enabled or ctx is None:
            return NOOP_SPAN  # type: ignore[return-value]
        return self._by_id.get(ctx.span_id, NOOP_SPAN)  # type: ignore[arg-type]

    def finish_span(self, ctx: Optional[TraceContext], end: float) -> None:
        """Finish the span behind ``ctx``; account for evicted spans.

        A finish arriving for a span the ring already consumed is not
        silently swallowed: it is counted (``late_finishes`` and the
        ``late_finish`` drop reason) and the trace is marked partial so
        analyzers and exports can see data went missing.
        """
        span = self.span_for(ctx)
        if span is NOOP_SPAN:
            if self.enabled and ctx is not None:
                self.late_finishes += 1
                self._m_span_drops.labels(reason="late_finish").inc()
                if ctx.trace_id in self._open:
                    self._partial[ctx.trace_id] = True
            return
        span.finish(end)

    # -- queries -------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """All live spans, grouped by trace in trace-creation order."""
        return [s for buf in self._by_trace.values() for s in buf]

    def trace(self, trace_id: str) -> List[Span]:
        """All spans of one trace, in creation order (O(trace size))."""
        return list(self._by_trace.get(trace_id, ()))

    def trace_ids(self) -> List[str]:
        """Distinct live trace ids in first-seen order."""
        return list(self._by_trace)

    def roots(self) -> List[Span]:
        return [
            s
            for buf in self._by_trace.values()
            for s in buf
            if s.parent_id is None
        ]

    def clear(self) -> None:
        """Drop every span, index, window, and counter consistently."""
        self._reset_state()


class Telemetry:
    """The bundle of telemetry surfaces threaded through the stack."""

    def __init__(
        self,
        enabled: bool = True,
        task_detail: bool = False,
        max_spans: int = 200_000,
        sample_rate: int = 1,
        retain_interesting: bool = True,
    ) -> None:
        self.enabled = enabled
        # The registry must exist before the tracer: the flight recorder
        # instruments its cataloged repro_obs_trace_* families against it.
        self.metrics: MetricsRegistry = (
            MetricsRegistry() if enabled else NOOP_REGISTRY
        )
        self.tracer = Tracer(
            enabled=enabled,
            task_detail=task_detail,
            max_spans=max_spans,
            sample_rate=sample_rate,
            retain_interesting=retain_interesting,
            registry=self.metrics if enabled else None,
        )
        self.audit = AuditTrail(enabled=enabled)
        #: Optional :class:`~repro.obs.emit.EmissionBatcher`.  ``None``
        #: by default: the hot-path cost of no emitter is one attribute
        #: check at the few sites that produce emission events.
        self.emitter = None

    def attach_emitter(self, batcher) -> None:
        """Attach a batched emission pipeline (no-op hub refuses it).

        Also wires the flight recorder's retained-trace hook: every
        trace that survives finalization ships a one-line summary event
        (id, reason, delay decomposition) through the batcher.
        """
        if not self.enabled:
            raise ValueError(
                "cannot attach an emitter to disabled telemetry"
            )
        from .emit import trace_summary_event

        self.emitter = batcher

        def _ship(trace_id: str, spans, reason: str) -> None:
            event = trace_summary_event(trace_id, spans, reason)
            batcher.emit(event, now=float(event["time"]))  # type: ignore[arg-type]

        self.tracer.on_retained = _ship

    def close_emitter(self) -> None:
        """Flush-on-close the attached emitter, if any.  Idempotent."""
        if self.emitter is not None:
            self.emitter.close()


#: Shared disabled hub: the default for every instrumented component.
NOOP_TELEMETRY = Telemetry(enabled=False)

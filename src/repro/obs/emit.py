"""Batched telemetry emission: a bounded queue in front of a JSONL sink.

Fleet-volume telemetry cannot afford a write syscall per event, and an
unbounded buffer is a memory leak wearing a trench coat.  The
:class:`EmissionBatcher` sits between instrumentation call sites and the
JSONL exporter:

* events are **enqueued** (cheap append) and flushed to the sink as one
  batch per **sim-time flush interval** — the batcher is driven by
  simulation time like everything else, so output is deterministic;
* the queue is **bounded**: when full, the newest event is dropped and
  the drop is accounted (``repro_obs_emit_dropped_total`` and
  :attr:`EmissionBatcher.dropped`) — backpressure never propagates into
  the simulation;
* **flush-on-close** guarantees no tail loss on orderly shutdown.

The default sink is :class:`JsonlSink` — one ``json.dumps(…,
sort_keys=True)`` line per event, the same archive convention as span
JSONL.  :func:`metric_events` snapshots a registry (one event per
family child) into emission events, which is how ``repro
metrics --events-out`` ships periodic registry snapshots through the
pipeline.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, TextIO, Union

from . import catalog
from .critical import decompose
from .registry import NOOP_REGISTRY, Histogram, MetricsRegistry
from .span import Span

#: An emission event is a flat JSON-serialisable dict.
Event = Dict[str, object]

Sink = Union["JsonlSink", Callable[[List[Event]], None]]

DEFAULT_FLUSH_INTERVAL = 10.0


class JsonlSink:
    """Append-only JSONL writer: one sorted-key object per line."""

    def __init__(self, target: Union[str, TextIO]) -> None:
        if isinstance(target, str):
            self._fh: TextIO = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self.lines_written = 0

    def __call__(self, events: List[Event]) -> None:
        for event in events:
            self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self.lines_written += len(events)

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


class EmissionBatcher:
    """Bounded-queue, sim-time-interval batcher in front of a sink.

    Parameters
    ----------
    sink:
        Where flushed batches go — a :class:`JsonlSink` or any callable
        taking a list of events.
    registry:
        Destination for the batcher's own accounting instruments
        (enqueued / dropped / flushed counters, queue-length gauge).
        Defaults to the no-op registry.
    flush_interval:
        Simulated seconds between automatic flushes.  ``emit`` and
        ``tick`` both advance the clock; a flush fires the first time
        the interval has elapsed since the previous flush.
    """

    #: Hard queue bound.  An ``emit()`` against a full queue drops the
    #: incoming event with accounting; it never blocks or grows.
    MAX_PENDING = 4096

    def __init__(
        self,
        sink: Sink,
        registry: Optional[MetricsRegistry] = None,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
    ) -> None:
        if flush_interval <= 0:
            raise ValueError(
                f"flush_interval must be > 0, got {flush_interval}"
            )
        self.sink = sink
        self.flush_interval = float(flush_interval)
        self._pending: List[Event] = []
        self._last_flush: Optional[float] = None
        self.closed = False
        #: Lifetime accounting (mirrored on the metrics below).
        self.enqueued = 0
        self.dropped = 0
        self.flushed = 0
        self.flushes = 0
        reg = registry if registry is not None else NOOP_REGISTRY
        self._m_enqueued = catalog.instrument(
            reg, "repro_obs_emit_enqueued_total"
        )
        self._m_dropped = catalog.instrument(
            reg, "repro_obs_emit_dropped_total"
        )
        self._m_flushed = catalog.instrument(
            reg, "repro_obs_emit_flushed_total"
        )
        self._m_flushes = catalog.instrument(
            reg, "repro_obs_emit_flushes_total"
        )
        self._m_queue = catalog.instrument(
            reg, "repro_obs_emit_queue_length"
        )

    @property
    def pending(self) -> int:
        return len(self._pending)

    def emit(self, event: Event, now: float) -> bool:
        """Enqueue one event at sim time ``now``.

        Returns False (with drop accounting) when the queue is full or
        the batcher is closed; flushes first if the interval elapsed.
        """
        if self.closed:
            return False
        self.maybe_flush(now)
        if len(self._pending) >= self.MAX_PENDING:
            self.dropped += 1
            self._m_dropped.inc()
            return False
        self._pending.append(event)
        self.enqueued += 1
        self._m_enqueued.inc()
        self._m_queue.set(len(self._pending))
        return True

    def maybe_flush(self, now: float) -> bool:
        """Flush if ``flush_interval`` simulated seconds have elapsed."""
        if self._last_flush is None:
            # First activity anchors the flush clock; nothing to ship.
            self._last_flush = now
            return False
        if now - self._last_flush >= self.flush_interval:
            self.flush(now)
            return True
        return False

    def flush(self, now: Optional[float] = None) -> int:
        """Ship everything pending to the sink as one batch."""
        if now is not None:
            self._last_flush = now
        if not self._pending:
            return 0
        batch, self._pending = self._pending, []
        self.sink(batch)
        self.flushed += len(batch)
        self.flushes += 1
        self._m_flushed.inc(len(batch))
        self._m_flushes.inc()
        self._m_queue.set(0)
        return len(batch)

    def close(self) -> None:
        """Flush the tail and close an owning sink.  Idempotent."""
        if self.closed:
            return
        self.flush()
        self.closed = True
        close = getattr(self.sink, "close", None)
        if close is not None:
            close()


# -- registry snapshots as events --------------------------------------------


def _sample(
    name: str,
    kind: str,
    metric: object,
    time: float,
    labels: Dict[str, str],
) -> Event:
    event: Event = {
        "name": name,
        "kind": kind,
        "labels": labels,
        "time": time,
    }
    if isinstance(metric, Histogram):
        event["sum"] = metric.sum
        event["count"] = metric.count
        event["buckets"] = dict(
            zip((repr(b) for b in metric.bounds), metric.cumulative_counts())
        )
    else:
        event["value"] = metric.value  # type: ignore[attr-defined]
    return event


def metric_events(registry: MetricsRegistry, time: float = 0.0) -> List[Event]:
    """Snapshot a registry as one event per sample, deterministic order.

    Each family yields one event per child, sorted by label values (an
    unlabeled metric has one child).  This is the JSONL twin of the
    Prometheus text exposition — same data, machine-shaped.
    """
    events: List[Event] = []
    for family in registry.collect():
        spec = family.spec
        for values, child in family.children():
            labels = dict(zip(spec.labels, values))
            events.append(_sample(spec.name, spec.kind, child, time, labels))
    return events


# -- retained-trace summaries -------------------------------------------------


def trace_summary_event(
    trace_id: str, spans: "List[Span]", reason: str
) -> Event:
    """One emission event summarizing a trace the flight recorder kept.

    The Telemetry hub wires this through ``Tracer.on_retained``, so every
    retained trace ships a one-line summary (retention reason, span
    count, and — when the trace decomposes — the §5 delay-model
    segments) through the batched emission pipeline alongside metric
    snapshots.
    """
    root = next((s for s in spans if s.parent_id is None), None)
    if root is not None and root.end is not None:
        time = root.end
    elif spans:
        last = spans[-1]
        time = last.end if last.end is not None else last.start
    else:
        time = 0.0
    event: Event = {
        "event": "trace_retained",
        "traceId": trace_id,
        "reason": reason,
        "spans": len(spans),
        "time": time,
    }
    d = decompose(spans)
    if d is not None:
        event["ingest"] = d.ingest
        event["queue"] = d.queue
        event["schedule"] = d.schedule
        event["execute"] = d.execute
        event["complete"] = d.complete
        event["criticalPath"] = ";".join(
            step.name for step in d.critical_path
        )
    return event

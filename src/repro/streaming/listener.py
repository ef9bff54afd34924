"""Streaming listener.

"We design Spark Streaming Listener to report real-time system status to
NoStop in JSON format.  Based on each newly updated performance vector,
NoStop computes the next-step configuration parameters" (§4.3).

The listener receives a callback per completed batch and renders status
reports as JSON; NoStop's metric collector subscribes to it rather than
touching simulator internals, mirroring the paper's architecture where
the optimizer lives outside the engine.  With telemetry attached, the
listener is also where per-batch streaming metrics are recorded —
counters for batches/records and histograms for processing time,
scheduling delay, and end-to-end delay.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional

from repro.obs import catalog
from repro.obs.tracer import NOOP_TELEMETRY, Telemetry

from .metrics import BatchInfo, StreamingMetrics

BatchCallback = Callable[[BatchInfo], None]


class StreamingListener:
    """Collects :class:`BatchInfo` events and serves JSON status reports."""

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self.metrics = StreamingMetrics()
        self._subscribers: List[BatchCallback] = []
        # Immutable fan-out snapshot, rebuilt on (un)subscribe.  Dispatch
        # happens once per batch on the hot path; copying the subscriber
        # list there cost an allocation per batch for a list that almost
        # never changes.
        self._fanout: tuple = ()
        self.telemetry = telemetry or NOOP_TELEMETRY
        registry = self.telemetry.metrics
        self._m_batches = catalog.instrument(
            registry, "repro_streaming_batches_total"
        )
        self._m_records = catalog.instrument(
            registry, "repro_streaming_records_total"
        )
        self._m_unstable = catalog.instrument(
            registry, "repro_streaming_unstable_batches_total"
        )
        self._m_proc = catalog.instrument(
            registry, "repro_streaming_processing_seconds"
        )
        self._m_sched = catalog.instrument(
            registry, "repro_streaming_scheduling_delay_seconds"
        )
        self._m_e2e = catalog.instrument(
            registry, "repro_streaming_end_to_end_delay_seconds"
        )
        self._m_batch_records = catalog.instrument(
            registry, "repro_streaming_batch_records_count"
        )

    def subscribe(self, callback: BatchCallback) -> None:
        """Register a per-batch callback (NoStop's metric collector)."""
        self._subscribers.append(callback)
        self._fanout = tuple(self._subscribers)

    def watch(self, observer) -> None:
        """Attach a judge-style observer (anything with ``observe_batch``).

        Sugar over :meth:`subscribe` for the observability layer: the SLO
        evaluator, burn-rate alerter, and the run judge all expose an
        ``observe_batch(info)`` method and see every completed batch in
        completion order, exactly as NoStop's own collector does.
        """
        self.subscribe(observer.observe_batch)

    def unsubscribe(self, callback: BatchCallback) -> None:
        """Remove a callback; a no-op if it was never registered.

        Tolerating unknown callbacks makes teardown idempotent — a
        subscriber that lost the race (or already removed itself from
        within its own callback) can safely unsubscribe again.
        """
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass
        else:
            self._fanout = tuple(self._subscribers)

    def on_batch_completed(self, info: BatchInfo) -> None:
        """Record a completed batch and fan out to subscribers.

        Iterates over a snapshot of the subscriber list, so a callback
        may unsubscribe itself (or others) without corrupting the
        iteration; subscribers added mid-fan-out see the *next* batch.
        """
        self.metrics.record(info)
        if self.telemetry.enabled:
            self._m_batches.inc()
            self._m_records.inc(info.records)
            if not info.stable:
                self._m_unstable.inc()
            self._m_proc.observe(info.processing_time)
            self._m_sched.observe(info.scheduling_delay)
            self._m_e2e.observe(info.end_to_end_delay)
            self._m_batch_records.observe(info.records)
            emitter = self.telemetry.emitter
            if emitter is not None:
                emitter.emit(
                    {
                        "event": "batch_completed",
                        "time": info.batch_time,
                        "records": info.records,
                        "processingSeconds": info.processing_time,
                        "schedulingDelaySeconds": info.scheduling_delay,
                        "stable": info.stable,
                    },
                    now=info.batch_time,
                )
        for cb in self._fanout:
            cb(info)

    # -- status reports -------------------------------------------------

    def latest_status(self) -> Optional[dict]:
        """Most recent performance vector, or None before the first batch."""
        last = self.metrics.last
        return last.to_dict() if last else None

    def status_json(self, last_n: int = 1) -> str:
        """JSON status report covering the last ``last_n`` batches."""
        if last_n < 1:
            raise ValueError("last_n must be >= 1")
        recent = self.metrics.recent(last_n)
        payload = {
            "batches": [b.to_dict() for b in recent],
            "totalBatches": len(self.metrics),
            "totalRecords": self.metrics.total_records(),
        }
        return json.dumps(payload)

    @staticmethod
    def parse_status(report: str) -> dict:
        """Parse a :meth:`status_json` report back into a dict."""
        payload = json.loads(report)
        if "batches" not in payload:
            raise ValueError("malformed status report: missing 'batches'")
        return payload

"""Streaming receiver.

Bridges the Kafka substrate and the micro-batch pipeline: at every batch
boundary the receiver advances the external data generator to the
boundary time, polls the direct-stream consumer for the offset ranges
that arrived during the interval, and closes a batch with the record
count plus the record-weighted mean arrival time (needed for end-to-end
delay).  The fast tiers' record source, ``TraceSource``, has its surface.
"""

from __future__ import annotations

from typing import Optional

from repro.datagen.generator import DataGenerator
from repro.datagen.rates import RateTrace
from repro.kafka.consumer import DirectStreamConsumer
from repro.obs import catalog
from repro.obs.tracer import NOOP_TELEMETRY, Telemetry

from .batch_queue import QueuedBatch


def trailing_rate(trace: RateTrace, now: float, window: float) -> float:
    """Arrival rate of ``trace`` over the ``window`` seconds before ``now``."""
    if window <= 0:
        raise ValueError("window must be positive")
    start = max(0.0, now - window)
    if now <= start:
        return trace.rate(0.0)
    return trace.records_between(start, now) / (now - start)


class Receiver:
    """Direct-stream receiver over a :class:`DataGenerator`."""

    def __init__(
        self,
        generator: DataGenerator,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.generator = generator
        self.consumer = DirectStreamConsumer(generator.producer.topic)
        self._last_poll = 0.0
        self._stalled = False
        self.telemetry = telemetry or NOOP_TELEMETRY
        registry = self.telemetry.metrics
        self.consumer.instrument(registry)
        self.generator.producer.instrument(registry)
        self._m_stalls = catalog.instrument(
            registry, "repro_streaming_receiver_stall_windows_total"
        )

    # -- fault injection (broker outage / receiver stall) -------------------

    @property
    def stalled(self) -> bool:
        """Whether fetches are currently failing (broker outage)."""
        return self._stalled

    def stall(self) -> None:
        """Stop fetching: brokers are unreachable.

        Producers keep appending to the topic, so the backlog grows and
        bursts into the first batch formed after :meth:`resume` — the
        recovery transient NoStop's robust collector must reject.
        """
        self._stalled = True

    def resume(self) -> None:
        """Brokers reachable again; the next poll drains the backlog."""
        self._stalled = False

    @property
    def backlog(self) -> int:
        """Records produced but not yet pulled into any batch."""
        return self.consumer.lag()

    def observed_rate(self, window: float = 10.0) -> float:
        """Arrival rate over the trailing window, from the trace."""
        return trailing_rate(
            self.generator.trace, self.generator.producer.produced_until,
            window,
        )

    def close_batch(self, batch_time: float) -> QueuedBatch:
        """Close the batch ending at ``batch_time``.

        Materializes arrivals up to the boundary and consumes exactly the
        records that arrived since the previous boundary.
        """
        if batch_time < self._last_poll:
            raise ValueError(
                f"batch boundary {batch_time} precedes previous boundary "
                f"{self._last_poll}"
            )
        self.generator.advance_to(batch_time)
        if self._stalled:
            # Brokers down: records pile up in the topic but none can be
            # fetched, so this batch is empty.  Offsets stay committed
            # where they were; the post-recovery poll gets the backlog.
            self._last_poll = batch_time
            self._m_stalls.inc()
            return QueuedBatch(batch_time, 0, batch_time)
        batch = self.consumer.poll(batch_time)
        mean_arrival = self.consumer.mean_arrival_time(batch)
        self._last_poll = batch_time
        return QueuedBatch(batch_time, batch.total_records, mean_arrival)

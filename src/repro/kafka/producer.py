"""Rate-controlled Kafka producer.

The external data generator of §6.1 "sends data to Kafka Brokers at
varying data rates" with a uniform spread over partitions.  The producer
advances with simulation time: calling :meth:`produce_until` materializes
all records implied by the rate trace since the last call.

A producer-side ``rate_cap`` models the paper's note that "the input data
rate could also be restricted in the streaming data processing system to
avoid instantaneous surge rates (e.g., by controlling the Kafka producing
rate)" (§6.2.2) — and is the knob the back-pressure baseline actuates.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.datagen.rates import RateTrace
from repro.obs import catalog
from repro.obs.registry import NOOP_REGISTRY, MetricsRegistry

from .topic import Topic


class RateControlledProducer:
    """Feed a topic from a rate trace, in fixed production ticks."""

    #: Production tick in seconds.
    TICK = 1.0

    def __init__(
        self,
        topic: Topic,
        trace: RateTrace,
        count_only: bool = False,
    ) -> None:
        self.topic = topic
        self.trace = trace
        #: Producer-side throttle in records/second; None means unthrottled
        #: (see :meth:`set_rate_cap`).
        self.rate_cap: Optional[float] = None
        #: Count-only fast path: materialize one segment per constant-rate
        #: span (via :meth:`RateTrace.constant_until`) instead of one per
        #: tick.  Topic-wide totals follow the trace integral exactly; the
        #: tick-level quantization of the default path is skipped, so the
        #: two modes are each deterministic but not byte-identical to one
        #: another.  Meant for cost-model-driven runs that never execute
        #: workload kernels (the sweep runner's cells).
        self.count_only = bool(count_only)
        self.surge = 1.0
        self._produced_until = 0.0
        self.total_produced = 0
        self.total_throttled = 0
        self.instrument(NOOP_REGISTRY)

    def instrument(self, registry: MetricsRegistry) -> None:
        """Bind telemetry instruments (no-op registry by default).

        Both series carry a ``topic`` label, bound once here so the
        per-tick production loop stays label-free.
        """
        self._m_produced = catalog.instrument(
            registry, "repro_kafka_records_produced_total"
        ).labels(topic=self.topic.name)
        self._m_throttled = catalog.instrument(
            registry, "repro_kafka_records_throttled_total"
        ).labels(topic=self.topic.name)

    @property
    def produced_until(self) -> float:
        """Simulation time up to which records have been materialized."""
        return self._produced_until

    def set_rate_cap(self, cap: Optional[float]) -> None:
        """Change the producer-side throttle (None removes it)."""
        if cap is not None and cap <= 0:
            raise ValueError(f"rate_cap must be positive, got {cap}")
        self.rate_cap = cap

    def set_surge(self, multiplier: float) -> None:
        """Multiply the trace rate (chaos data-skew burst; 1.0 = normal).

        Applied on top of the configured trace, before the rate cap, so a
        burst can both inflate batches and trip the back-pressure
        throttle — the two ways a real skew event hurts.
        """
        if multiplier <= 0:
            raise ValueError(f"surge multiplier must be positive, got {multiplier}")
        self.surge = float(multiplier)

    def produce_until(self, t: float) -> int:
        """Materialize all arrivals in ``[produced_until, t)``.

        Returns the number of records produced by this call.  Throttled
        records (above ``rate_cap``) are counted in ``total_throttled``
        and dropped, modeling an upstream queue we do not simulate —
        exactly the data-loss risk the paper warns unstable systems incur.
        """
        if t < self._produced_until:
            raise ValueError(
                f"produce_until({t}) precedes already-produced time "
                f"{self._produced_until}"
            )
        produced = 0
        while self._produced_until + 1e-12 < t:
            t0 = self._produced_until
            if self.count_only:
                # One production span per constant-rate region, but never
                # shorter than a tick (sub-tick regions integrate across
                # their boundary exactly as the default path does).
                t1 = min(t, max(self.trace.constant_until(t0), t0 + self.TICK))
            else:
                t1 = min(t0 + self.TICK, t)
            want = self.trace.records_between(t0, t1)
            if self.surge != 1.0:
                want = int(round(want * self.surge))
            if self.rate_cap is not None:
                allowed = int(math.floor(self.rate_cap * (t1 - t0)))
                if want > allowed:
                    self.total_throttled += want - allowed
                    self._m_throttled.inc(want - allowed)
                    want = allowed
            self.topic.append_uniform(t0, t1, want)
            produced += want
            self._produced_until = t1
        self.total_produced += produced
        if produced:
            self._m_produced.inc(produced)
        return produced

"""External streaming data generator.

Binds a rate trace, a record synthesizer, and a Kafka producer into the
"streaming data generator [deployed] outside the cluster, which sends
data to Kafka Brokers at varying data rates" of §6.1.

Counts always flow through Kafka (cheap, segment-based); payloads are
synthesized lazily via :meth:`DataGenerator.sample_payloads` so workload
kernels can run on representative records without materializing millions
of objects.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.kafka.producer import RateControlledProducer
from repro.kafka.topic import Topic

from . import records as rec
from .rates import RateTrace


class DataGenerator:
    """Drive a Kafka topic from a rate trace with typed payloads.

    Parameters
    ----------
    topic:
        Destination topic.
    trace:
        Arrival-rate trace (records/second).
    payload_kind:
        One of ``"labeled_points"``, ``"regression_points"``, ``"text"``,
        ``"nginx_logs"`` — selects the synthesizer used by
        :meth:`sample_payloads`.
    seed:
        Seed for payload synthesis.
    count_only:
        Enable the count-only fast path: arrivals are materialized one
        segment per constant-rate span rather than one per tick.  Use for
        cost-model-driven runs that never execute workload kernels (the
        sweep runner enables it for its cells); payload synthesis via
        :meth:`sample_payloads` keeps working either way.
    """

    PAYLOAD_KINDS = ("labeled_points", "regression_points", "text", "nginx_logs")

    def __init__(
        self,
        topic: Topic,
        trace: RateTrace,
        payload_kind: str = "text",
        seed: int = 0,
        count_only: bool = False,
    ) -> None:
        if payload_kind not in self.PAYLOAD_KINDS:
            raise ValueError(
                f"unknown payload_kind {payload_kind!r}; "
                f"expected one of {self.PAYLOAD_KINDS}"
            )
        self.producer = RateControlledProducer(topic, trace, count_only=count_only)
        self.payload_kind = payload_kind
        self._rng = np.random.default_rng(seed)

    @property
    def trace(self) -> RateTrace:
        return self.producer.trace

    def advance_to(self, t: float) -> int:
        """Produce all records implied by the trace up to time ``t``."""
        return self.producer.produce_until(t)

    def set_rate_cap(self, cap: Optional[float]) -> None:
        self.producer.set_rate_cap(cap)

    def set_surge(self, multiplier: float) -> None:
        """Multiplicative burst on the offered rate (chaos data skew)."""
        self.producer.set_surge(multiplier)

    def sample_payloads(self, n: int) -> Sequence:
        """Synthesize ``n`` payloads of this generator's kind."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if self.payload_kind == "labeled_points":
            return rec.make_labeled_points(
                n, rec.FEATURE_DIM, self._rng, binary=True
            )
        if self.payload_kind == "regression_points":
            return rec.make_labeled_points(
                n, rec.FEATURE_DIM, self._rng, binary=False
            )
        if self.payload_kind == "text":
            return rec.make_text_lines(n, self._rng)
        return rec.make_nginx_log_lines(n, self._rng)

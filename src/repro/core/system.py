"""Adapter binding NoStop to the simulated Spark Streaming substrate.

Implements :class:`~repro.core.adjust.ControlledSystem` over a
:class:`~repro.streaming.context.StreamingContext`: configuration changes
go through the context's runtime-reconfiguration API, and measurements
are assembled from listener batch reports through the §5.4 collection
protocol.

A production deployment would replace this single class with an adapter
speaking to a real cluster (Spark listener WebSocket + cluster-manager
API); everything above it — SPSA, the Adjust function, pause/reset rules
— is substrate-agnostic, which is the paper's generality claim.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.resource_manager import InsufficientResourcesError
from repro.streaming.context import StreamingContext
from repro.streaming.metrics import BatchInfo

from .adjust import ControlledSystem
from .metrics_collector import Measurement, MetricsCollector


class SimulatedSparkSystem(ControlledSystem):
    """Drive a :class:`StreamingContext` as a controlled system.

    ``context`` is the simulated streaming application.
    """

    #: Safety valve: how many batch boundaries to advance while waiting
    #: for one measurement before summarizing whatever has arrived.  In
    #: deeply unstable configurations completions lag boundaries, so a
    #: cap keeps Adjust calls bounded (the real system has the same
    #: property: NoStop would observe a huge processing time and move on).
    MAX_BOUNDARIES = 400

    def __init__(self, context: StreamingContext) -> None:
        self.context = context
        self._last_config_time = 0.0
        #: whether the most recent apply_configuration failed (guarded
        #: reconfiguration: the caller must not trust the gradient)
        self.last_apply_failed = False
        #: total failed configuration applications
        self.failed_applies = 0
        #: optional fault-telemetry source (e.g. a ChaosEngine) exposing
        #: a ``faults_active`` attribute; drives degraded-mode measuring
        self.health_source = None

    # -- ControlledSystem ---------------------------------------------------

    def degraded(self) -> bool:
        source = self.health_source
        return bool(source is not None and source.faults_active)

    def apply_configuration(
        self,
        batch_interval: float,
        num_executors: int,
        partitions: Optional[int] = None,
        executor_cores: Optional[int] = None,
    ) -> None:
        """Guarded reconfiguration.

        During an infrastructure outage the cluster may be unable to host
        the requested executor count (or per-executor sizing); Spark's
        dynamic-allocation request would simply not be honored.  Rather
        than crashing the optimizer (or worse, silently measuring a
        half-applied θ as if it were θ), the guard keeps the live pool,
        applies the remaining tunables, and raises the
        ``last_apply_failed`` flag so Adjust marks the measurement
        corrupted and the controller skips the SPSA step.
        """
        self.last_apply_failed = False
        try:
            self.context.change_configuration(
                batch_interval=batch_interval,
                num_executors=num_executors,
                partitions=partitions,
                executor_cores=executor_cores,
            )
        except InsufficientResourcesError:
            self.last_apply_failed = True
            self.failed_applies += 1
            # Fall back: keep the surviving executor pool (the scale
            # failed atomically), still honor interval/partitions.
            self.context.change_configuration(
                batch_interval=batch_interval, partitions=partitions
            )
        self._last_config_time = self.context.time

    def collect(self, collector: MetricsCollector) -> Measurement:
        """Advance the pipeline until the collector fills its window.

        Only batches *formed* under the current configuration count:
        when earlier (possibly unstable) probes left a queue backlog, the
        engine first finishes stale batches whose sizes reflect old
        intervals — measuring those would hand SPSA a gradient for a
        configuration it is no longer probing.  This generalizes the
        paper's discard-first-batch rule (§5.4) to arbitrarily deep
        backlogs.

        If the boundary cap is hit first (pathologically unstable
        config), the partial buffer is summarized; if not even one batch
        completed, a synthetic worst-case measurement is built from the
        engine backlog so the optimizer sees a strongly penalized value
        rather than hanging.
        """
        fallback: List[BatchInfo] = []
        for _ in range(self.MAX_BOUNDARIES):
            completed = self.context.advance_one_batch()
            for info in completed:
                if info.batch_time < self._last_config_time:
                    continue  # stale batch from a previous configuration
                fallback.append(info)
                measurement = collector.offer(info)
                if measurement is not None:
                    return measurement
        # Cap reached: summarize whatever arrived.
        clean = [b for b in fallback if not b.first_after_reconfig]
        if clean:
            return collector.summarize(clean)
        if fallback:
            return collector.summarize(fallback)
        # No batch formed under this configuration completed within the
        # cap (deep backlog from earlier unstable probes).  Fall back to
        # the most recent *stale* completions: their processing times
        # reflect the current executor pool (jobs always run on the live
        # pool), which keeps the objective batch-local and bounded — the
        # paper's G(θ) never observes scheduling delay, only per-batch
        # processing time.
        recent = self.context.listener.metrics.recent(5)
        if recent:
            return collector.summarize(list(recent))
        proc = self.context.batch_interval * 2.0
        return Measurement(
            mean_processing_time=proc,
            mean_end_to_end_delay=proc,
            mean_scheduling_delay=proc,
            mean_records=0.0,
            batches_used=1,
            skipped=0,
        )

    @property
    def time(self) -> float:
        return self.context.time

    def observed_input_rate(self) -> float:
        """Receiver rate over the last batch interval, at least 10 s."""
        return self.context.receiver.observed_rate(
            window=max(self.context.batch_interval, 10.0)
        )

    @property
    def config_changes(self) -> int:
        return self.context.config_changes

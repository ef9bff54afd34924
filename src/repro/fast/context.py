"""Fast-tier streaming context: the one pipeline with closed-form parts.

:class:`FastStreamingContext` is a
:class:`repro.streaming.context.StreamingContext`: it runs the same
batch-formation loop, batch queue, drain loop and control surface —
configuration, the transactional scale-first reconfiguration, boundary
hooks, failure injection, status, the listener and the
``repro_streaming_*`` instruments.  It supplies only the two parts a
tier swaps, built from closed forms:

* the record source, :class:`TraceSource`: records per batch come from
  the rate trace's integral (``records_in`` over a prefetch block), not
  a simulated Kafka topic, and the record-weighted mean arrival time is
  the interval midpoint (the uniform-arrival assumption the
  steady-state oracle encodes), so the delay identity
  ``e2e = interval/2 + sched + proc`` holds by construction;
* the batch coster, :class:`~repro.fast.engine.FastBatchEngine`:
  processing times come from the vectorized (or fluid) batch engine.

The per-batch Python path stays tiny because the record source
*prefetches*: records and processing times for a block of future
boundaries are computed in one shot, and the block size adapts — it
grows geometrically while the configuration holds and resets when a
reconfiguration invalidates the prefetched work.  Batches already queued
when a reconfiguration lands are marked stale and re-costed under the
live pool at drain time, matching the exact engine's
run-on-current-executors semantics.  When nothing watches the
boundaries in between, :meth:`FastStreamingContext.advance_batches`
forms and drains a stretch of the block as plain lists instead of one
batch object at a time, with the same results.

Not modeled in this tier: per-record payloads and kernels, Kafka broker
faults (receiver stalls), transient task failures, and batch traces.
Chaos scenarios therefore require the exact tier.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.datagen.generator import DataGenerator
from repro.datagen.rates import RateTrace
from repro.engine.overhead import DEFAULT_OVERHEAD, OverheadModel
from repro.obs import catalog
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Telemetry
from repro.streaming.batch_queue import QueuedBatch
from repro.streaming.context import StreamingConfig, StreamingContext
from repro.streaming.metrics import BatchInfo
from repro.streaming.receiver import trailing_rate
from repro.workloads.base import Workload

from .engine import FastBatchEngine

#: Adaptive prefetch bounds: first block after any (re)configuration,
#: growth factor while the configuration holds, and the cap.
_PREFETCH_START = 8
_PREFETCH_GROWTH = 4
_PREFETCH_MAX = 1024


class TraceSource:
    """The fast tiers' record source: batches cut from the rate trace.

    It has the exact receiver's surface; broker stalls are not modeled,
    so :meth:`stall` and :meth:`resume` raise.  Each refill hands the
    block's records to the coster, which serves their costs in step.
    A windowed workload's effective records are sized ahead on a copy;
    its live window slides as each batch forms, so it holds exactly the
    formed batches, as on the exact tier.
    """

    stalled = False
    backlog = 0

    def __init__(
        self,
        trace: RateTrace,
        workload: Workload,
        engine: FastBatchEngine,
        interval: float,
        registry: MetricsRegistry,
    ) -> None:
        self.trace = trace
        self.workload = workload
        self.engine = engine
        self._slide = workload.effective_records if workload.windowed else None
        self._interval = interval
        #: The most recent boundary closed (the receiver's last poll).
        self._now = 0.0
        # The block: records for boundaries _b0 + i * interval.
        self._records: List[int] = []
        self._pos = 0
        self._b0 = 0.0
        self._size = _PREFETCH_START
        self._m_fills = catalog.instrument(
            registry, "repro_fast_prefetch_fills_total"
        )
        self._m_depth = catalog.instrument(
            registry, "repro_fast_prefetch_depth"
        )
        self._m_depth.set(self._size)

    def stall(self) -> None:
        raise NotImplementedError(
            "broker stalls are not modeled in the fast tier; "
            "use fidelity='exact' for chaos scenarios"
        )

    resume = stall

    def observed_rate(self, window: float = 10.0) -> float:
        """Arrival rate over the trailing window, from the trace."""
        return trailing_rate(self.trace, self._now, window)

    def close_batch(self, batch_time: float) -> QueuedBatch:
        """Close the batch ending at ``batch_time`` from the prefetch block.

        Interval-midpoint mean arrival: the uniform-arrival assumption of
        the steady-state identity, exact for this tier's batch-level
        arrival model.  Empty batches pin it to the boundary.
        """
        interval = self._interval
        pos = self._pos
        if (
            pos >= len(self._records)
            or abs(self._b0 + pos * interval - batch_time) > 1e-6
        ):
            self._refill(batch_time)
            pos = 0
        self._pos = pos + 1
        self._now = batch_time
        records = self._records[pos]
        if self._slide is not None:
            self._slide(records)
        return QueuedBatch(
            batch_time,
            records,
            batch_time - 0.5 * interval if records > 0 else batch_time,
        )

    def close_run(
        self, time: float, k: int
    ) -> Tuple[List[float], List[int], List[float]]:
        """Close up to ``k`` batches at the boundaries after ``time`` from
        the current block, as :meth:`close_batch` would one at a time:
        their boundaries (each one interval after the last, as the
        pipeline steps them), records and mean arrival times.  Stops
        where :meth:`close_batch` would refill, so the lists are empty
        when the first boundary needs a new block.
        """
        interval = self._interval
        pos = self._pos
        b0 = self._b0
        bounds: List[float] = []
        boundary = time
        for i in range(pos, min(len(self._records), pos + k)):
            boundary = boundary + interval
            if abs(b0 + i * interval - boundary) > 1e-6:
                break
            bounds.append(boundary)
        records = self._records[pos:pos + len(bounds)]
        if bounds:
            self._pos = pos + len(bounds)
            self._now = bounds[-1]
            if self._slide is not None:
                for n in records:
                    self._slide(n)
        half = 0.5 * interval
        means = [b - half if n > 0 else b for b, n in zip(bounds, records)]
        return bounds, records, means

    def invalidate(self, interval: float) -> None:
        """Drop the prefetched block; the next starts small at ``interval``."""
        self._interval = interval
        self._records = []
        self._pos = 0
        self._size = _PREFETCH_START
        self._m_depth.set(self._size)

    def _refill(self, first_boundary: float) -> None:
        size = self._size
        interval = self._interval
        t0 = first_boundary - interval
        # Batch i covers [t0 + i * interval, t0 + (i + 1) * interval):
        # one integration pass over the whole block.
        edges = [t0 + i * interval for i in range(size + 1)]
        records = self.trace.records_in(edges[:-1], edges[1:])
        if self.workload.windowed:
            effective = copy.deepcopy(self.workload).effective_records
            self.engine.prefetch([effective(r) for r in records])
        else:
            self.engine.prefetch(records)
        self._records = records
        self._pos = 0
        self._b0 = first_boundary
        self._m_fills.inc()
        if size < _PREFETCH_MAX:
            self._size = min(size * _PREFETCH_GROWTH, _PREFETCH_MAX)
            self._m_depth.set(self._size)


class FastStreamingContext(StreamingContext):
    """Batch-level simulated Spark Streaming application (fast tier)."""

    #: Which fast mode this context runs ("vectorized" or "fluid").
    fidelity: str

    def __init__(
        self,
        cluster: Cluster,
        workload: Workload,
        generator: DataGenerator,
        config: StreamingConfig,
        seed: int = 0,
        overhead: OverheadModel = DEFAULT_OVERHEAD,
        noise_sigma: float = 0.10,
        queue_max_length: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        mode: str = "vectorized",
    ) -> None:
        self._init_shared(
            cluster, workload, generator, config, seed, overhead,
            queue_max_length, telemetry,
        )
        self.fidelity = mode
        self.engine = FastBatchEngine(
            workload, overhead, self.rng, self.listener,
            noise_sigma=noise_sigma, mode=mode,
        )
        self.engine.set_profile(self.resource_manager.executors)
        registry = self.telemetry.metrics
        self._m_batches = catalog.instrument(
            registry, "repro_fast_batches_total"
        ).labels(mode=mode)
        self.receiver = TraceSource(
            generator.trace, workload, self.engine, self._interval, registry
        )

    def advance_one_batch(self) -> List[BatchInfo]:
        """The shared loop with batch traces off: no per-batch spans."""
        completed = self._advance(False)
        if completed:
            self._m_batches.inc(len(completed))
        return completed

    def advance_batches(self, n: int) -> List[BatchInfo]:
        """Advance ``n`` batch boundaries; returns all completed batches.

        While nothing can see a boundary go by — no boundary hook (chaos,
        the invariant engine), no listener subscriber, telemetry off —
        the boundaries go as runs, with the results of one step at a
        time: each stretch of the prefetch block is closed by
        :meth:`TraceSource.close_run` and enqueued and drained by
        :meth:`FastBatchEngine.drain_run`.  A boundary that needs a new
        block takes a single step, which refills it.
        """
        if (
            n < 0
            or self._boundary_hooks
            or self.listener.subscribed
            or self.telemetry.enabled
        ):
            return super().advance_batches(n)
        completed: List[BatchInfo] = []
        while n > 0:
            bounds, records, means = self.receiver.close_run(self.time, n)
            if not bounds:
                completed += self._advance(False)
                n -= 1
                continue
            self.time = bounds[-1]
            completed += self.engine.drain_run(
                self.queue, bounds, records, means,
                self.engine.serve(len(bounds)), self._interval,
                self._m_dropped.inc,
            )
            n -= len(bounds)
        if completed:
            self._m_batches.inc(len(completed))
        return completed

    # -- invalidation ------------------------------------------------------

    def _pool_changed(self, launched: bool) -> None:
        """Re-snapshot the pool; fresh executors re-arm the startup charge
        (a core resize relaunches the whole pool)."""
        self.engine.set_profile(self.resource_manager.executors)
        if launched:
            self.engine.startup_pending = True

    def _invalidate(self) -> None:
        """Drop the prefetched block and mark queued batches stale: they
        re-cost on the live pool when the engine reaches them."""
        self.receiver.invalidate(self._interval)
        for batch in self.queue:
            batch.cost = None

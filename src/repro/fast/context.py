"""Fast-tier streaming context: the exact facade over the batch engine.

:class:`FastStreamingContext` is a
:class:`repro.streaming.context.StreamingContext`: it inherits the
control surface — configuration, the transactional scale-first
reconfiguration, boundary hooks, advancing, failure injection, status,
the listener and the ``repro_streaming_*`` instruments — and the busy
timeline of the engine.  It replaces only the record/task substrates,
with closed forms:

* records per batch come from the rate trace's integral
  (``records_in`` over a prefetch block), not a simulated Kafka topic;
* the record-weighted mean arrival time is the interval midpoint (the
  uniform-arrival assumption the steady-state oracle encodes), so the
  delay identity ``e2e = interval/2 + sched + proc`` holds by
  construction;
* processing times come from the vectorized (or fluid) batch engine.

The per-batch Python path stays tiny because batch formation *prefetches*:
records and processing times for a block of future boundaries are
computed in one shot, and the block size adapts — it grows geometrically
while the configuration holds and resets when a reconfiguration
invalidates the prefetched work.  Batches already queued when a
reconfiguration lands are marked stale and re-costed under the live pool
at drain time, matching the exact engine's run-on-current-executors
semantics.

Not modeled in this tier: per-record payloads and kernels, Kafka broker
faults (receiver stalls), transient task failures, and batch traces.
Chaos scenarios therefore require the exact tier.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.datagen.generator import DataGenerator
from repro.engine.overhead import DEFAULT_OVERHEAD, OverheadModel
from repro.obs import catalog
from repro.obs.tracer import Telemetry
from repro.streaming.context import StreamingConfig, StreamingContext
from repro.streaming.metrics import BatchInfo
from repro.workloads.base import Workload

from .engine import FastBatchEngine

#: Adaptive prefetch bounds: first block after any (re)configuration,
#: growth factor while the configuration holds, and the cap.
_PREFETCH_START = 8
_PREFETCH_GROWTH = 4
_PREFETCH_MAX = 1024


class FastReceiver:
    """Rate-trace shim for the exact receiver's observation surface."""

    def __init__(self, context: "FastStreamingContext") -> None:
        self._context = context
        self.stall_windows = 0

    @property
    def stalled(self) -> bool:
        return False

    @property
    def backlog(self) -> int:
        return 0

    def stall(self) -> None:
        raise NotImplementedError(
            "broker stalls are not modeled in the fast tier; "
            "use fidelity='exact' for chaos scenarios"
        )

    resume = stall

    def observed_rate(self, window: float = 10.0) -> float:
        """Arrival rate over the trailing window, from the trace."""
        if window <= 0:
            raise ValueError("window must be positive")
        now = self._context.time
        start = max(0.0, now - window)
        if now <= start:
            return self._context.trace.rate(0.0)
        count = self._context.trace.records_between(start, now)
        return count / (now - start)


class FastBatchQueue(deque):
    """The bounded batch queue of the fast tier.

    Entries are lists ``[boundary, records, mean_arrival, interval,
    proc_time_or_None (None = stale, re-cost at drain), job_id,
    cost_records]``: no per-batch object beyond the list.  The counters
    mirror :class:`~repro.streaming.batch_queue.BatchQueue`'s.
    """

    def __init__(self, max_length: Optional[int]) -> None:
        super().__init__()
        self.max_length = max_length
        self.total_enqueued = 0
        self.total_dropped = 0
        self.peak_length = 0


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
            cluster, workload, generator, config, seed, overhead, telemetry
        )
        self.trace = generator.trace
        self.fidelity = mode
        self.receiver = FastReceiver(self)
        self.queue = FastBatchQueue(queue_max_length)
        self.engine = FastBatchEngine(
            workload,
            overhead,
            self.rng,
            noise_sigma=noise_sigma,
            mode=mode,
        )
        self.engine.set_profile(self.resource_manager.executors)
        self._exec_count = self.resource_manager.executor_count
        #: Fresh executors pay the one-time startup charge on the next
        #: job (initial pool included — warmup absorbs it, as exact).
        self._startup_pending = True

        # Prefetched block: records / effective records / processing
        # times for boundaries _pf_b0 + i * interval.
        self._pf_records: List[int] = []
        self._pf_cost_records: List[int] = []
        self._pf_proc: List[float] = []
        self._pf_pos = 0
        self._pf_len = 0
        self._pf_b0 = 0.0
        self._pf_size = _PREFETCH_START

        registry = self.telemetry.metrics
        self._m_batches = catalog.instrument(
            registry, "repro_fast_batches_total"
        ).labels(mode=mode)
        self._m_fills = catalog.instrument(
            registry, "repro_fast_prefetch_fills_total"
        )
        self._m_depth = catalog.instrument(
            registry, "repro_fast_prefetch_depth"
        )
        self._m_depth.set(self._pf_size)

    # -- invalidation ------------------------------------------------------

    def _pool_changed(self, launched: bool) -> None:
        """Re-snapshot the pool; fresh executors re-arm the startup charge
        (a core resize relaunches the whole pool)."""
        self._exec_count = self.resource_manager.executor_count
        self.engine.set_profile(self.resource_manager.executors)
        if launched:
            self._startup_pending = True

    def _invalidate(self) -> None:
        """Drop the prefetched block and mark queued batches stale: they
        re-cost on the live pool when the engine reaches them."""
        self._pf_len = 0
        self._pf_pos = 0
        self._pf_size = _PREFETCH_START
        self._m_depth.set(self._pf_size)
        for entry in self.queue:
            entry[4] = None

    # -- simulation --------------------------------------------------------

    def _refill_prefetch(self, first_boundary: float) -> None:
        size = self._pf_size
        interval = self._interval
        effective = self.workload.effective_records
        t0 = first_boundary - interval
        # Batch i covers [t0 + i * interval, t0 + (i + 1) * interval):
        # one integration pass over the whole block.
        edges = [t0 + i * interval for i in range(size + 1)]
        records = self.trace.records_in(edges[:-1], edges[1:])
        cost_records = [effective(r) for r in records]
        proc = self.engine.batch_proc_times(
            np.asarray(cost_records, dtype=np.int64)
        )
        self._pf_records = records
        self._pf_cost_records = cost_records
        self._pf_proc = proc.tolist()
        self._pf_pos = 0
        self._pf_len = size
        self._pf_b0 = first_boundary
        self._m_fills.inc()
        if size < _PREFETCH_MAX:
            self._pf_size = min(size * _PREFETCH_GROWTH, _PREFETCH_MAX)
            self._m_depth.set(self._pf_size)

    def advance_one_batch(self) -> List[BatchInfo]:
        """Advance to the next boundary; mirrors the exact context."""
        interval = self._interval
        boundary = self.time + interval
        if self._boundary_hooks:
            for hook in self._boundary_hooks:
                hook(boundary)
        pos = self._pf_pos
        if (
            pos >= self._pf_len
            or abs(self._pf_b0 + pos * interval - boundary) > 1e-6
        ):
            self._refill_prefetch(boundary)
            pos = 0
        records = self._pf_records[pos]
        self._pf_pos = pos + 1
        # Interval-midpoint mean arrival: the uniform-arrival assumption
        # of the steady-state identity, exact for this tier's batch-level
        # arrival model.  Empty batches pin it to the boundary.
        mean_arrival = boundary - 0.5 * interval if records > 0 else boundary
        queue = self.queue
        if queue.max_length is not None and len(queue) >= queue.max_length:
            queue.popleft()
            queue.total_dropped += 1
            self._m_dropped.inc()
        queue.append(
            [boundary, records, mean_arrival, interval, self._pf_proc[pos],
             queue.total_enqueued, self._pf_cost_records[pos]]
        )
        queue.total_enqueued += 1
        if len(queue) > queue.peak_length:
            queue.peak_length = len(queue)
        self.time = boundary
        completed = self._drain(boundary + interval)
        if self.telemetry.enabled:
            self._m_queue_len.set(len(queue))
        return completed

    def _drain(self, until: float) -> List[BatchInfo]:
        queue = self.queue
        completed: List[BatchInfo] = []
        if not queue:
            return completed
        engine = self.engine
        startup = self.overhead.executor_startup
        execs = self._exec_count
        on_batch_completed = self.listener.on_batch_completed
        while queue:
            head = queue[0]
            batch_time = head[0]
            free = engine.free_at
            start = free if free > batch_time else batch_time
            if start >= until:
                break
            queue.popleft()
            proc = head[4]
            if proc is None:
                proc = float(
                    engine.batch_proc_times(
                        np.asarray([head[6]], dtype=np.int64)
                    )[0]
                )
            if self._startup_pending:
                proc += startup
                self._startup_pending = False
            end = start + proc
            info = BatchInfo(
                batch_index=head[5],
                batch_time=batch_time,
                interval=head[3],
                records=head[1],
                num_executors=execs,
                mean_arrival_time=head[2],
                processing_start=start,
                processing_end=end,
                first_after_reconfig=engine.finish_job(end),
            )
            on_batch_completed(info)
            completed.append(info)
        if completed:
            self._m_batches.inc(len(completed))
        return completed

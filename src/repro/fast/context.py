"""Fast-tier streaming context: the exact facade over the batch engine.

:class:`FastStreamingContext` mirrors the control surface of
:class:`repro.streaming.context.StreamingContext` — boundary advance,
runtime reconfiguration with the transactional scale-first rule, bounded
batch queue with oldest-first eviction, the real
:class:`~repro.streaming.listener.StreamingListener` — but replaces the
record/task substrates with closed forms:

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
from typing import Callable, Deque, List, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.datagen.generator import DataGenerator
from repro.engine.overhead import DEFAULT_OVERHEAD, OverheadModel
from repro.obs import catalog
from repro.obs.tracer import NOOP_TELEMETRY, Telemetry
from repro.streaming.context import StreamingConfig
from repro.streaming.listener import StreamingListener
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


class FastStreamingContext:
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
        from repro.cluster.resource_manager import ResourceManager

        self.cluster = cluster
        self.workload = workload
        self.generator = generator
        self.trace = generator.trace
        self.rng = np.random.default_rng(seed)
        self.overhead = overhead
        self.telemetry = telemetry or NOOP_TELEMETRY
        self.fidelity = mode

        self.resource_manager = ResourceManager(cluster)
        self.resource_manager.instrument(self.telemetry.metrics)
        self.resource_manager.scale_to(config.num_executors, now=0.0)
        self.receiver = FastReceiver(self)
        self.listener = StreamingListener(telemetry=self.telemetry)
        self.engine = FastBatchEngine(
            workload,
            overhead,
            self.rng,
            noise_sigma=noise_sigma,
            mode=mode,
        )
        self.engine.set_profile(self.resource_manager.executors)

        self._interval = config.batch_interval
        self.time = 0.0
        self.config_changes = 0
        self.total_dropped = 0
        self._queue_max = queue_max_length
        #: queue entries: [boundary, records, mean_arrival, interval,
        #: proc_time_or_None (None = stale, re-cost at drain), job_id,
        #: cost_records]
        self._queue: Deque[list] = deque()
        self._boundary_hooks: List[Callable[[float], None]] = []
        self._job_counter = 0
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
        self._m_dropped = catalog.instrument(
            registry, "repro_fast_batches_dropped_total"
        )
        self._m_reconfigs = catalog.instrument(
            registry, "repro_fast_reconfigurations_total"
        )
        self._m_fills = catalog.instrument(
            registry, "repro_fast_prefetch_fills_total"
        )
        self._m_depth = catalog.instrument(
            registry, "repro_fast_prefetch_depth"
        )
        self._m_depth.set(self._pf_size)

    # -- configuration ----------------------------------------------------

    @property
    def batch_interval(self) -> float:
        return self._interval

    @property
    def num_executors(self) -> int:
        return self.resource_manager.executor_count

    @property
    def config(self) -> StreamingConfig:
        return StreamingConfig(self._interval, self.num_executors)

    def change_configuration(
        self,
        batch_interval: Optional[float] = None,
        num_executors: Optional[int] = None,
        partitions: Optional[int] = None,
        executor_cores: Optional[int] = None,
    ) -> None:
        """Runtime reconfiguration; semantics match the exact context.

        Pool changes (core resize, then scale) run first so a capacity
        failure leaves the configuration untouched; any applied change
        injects the reconfiguration pause, invalidates the prefetched
        block, and marks queued batches stale (they re-cost on the live
        pool when the engine reaches them).  A core resize relaunches
        the whole pool, so the startup charge is re-armed.
        """
        new_interval = (
            self._interval if batch_interval is None else batch_interval
        )
        new_execs = (
            self.num_executors if num_executors is None else num_executors
        )
        if new_interval <= 0:
            raise ValueError(
                f"batch_interval must be positive, got {new_interval}"
            )
        if new_execs < 1:
            raise ValueError(f"num_executors must be >= 1, got {new_execs}")
        if partitions is not None and partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        if executor_cores is not None and executor_cores < 1:
            raise ValueError(
                f"executor_cores must be >= 1, got {executor_cores}"
            )
        changed = False
        if (
            executor_cores is not None
            and executor_cores != self.resource_manager.executor_cores
        ):
            self.resource_manager.resize_cores(
                executor_cores, now=self.time, target=new_execs
            )
            self._exec_count = self.resource_manager.executor_count
            self.engine.set_profile(self.resource_manager.executors)
            self._startup_pending = True
            changed = True
        elif new_execs != self.num_executors:
            delta = self.resource_manager.scale_to(new_execs, now=self.time)
            self._exec_count = self.resource_manager.executor_count
            self.engine.set_profile(self.resource_manager.executors)
            if delta > 0:
                self._startup_pending = True
            changed = True
        if abs(new_interval - self._interval) > 1e-12:
            self._interval = new_interval
            changed = True
        if partitions is not None and partitions != self.workload.partitions:
            self.workload.partitions = partitions
            changed = True
        if changed:
            self.config_changes += 1
            self._m_reconfigs.inc()
            self.engine.note_reconfiguration(
                self.time, self.overhead.reconfig_pause
            )
            self._invalidate_prefetch()

    def _invalidate_prefetch(self) -> None:
        self._pf_len = 0
        self._pf_pos = 0
        self._pf_size = _PREFETCH_START
        self._m_depth.set(self._pf_size)
        for entry in self._queue:
            entry[4] = None  # stale: re-cost under the live configuration

    # -- simulation --------------------------------------------------------

    def add_boundary_hook(self, hook: Callable[[float], None]) -> None:
        self._boundary_hooks.append(hook)

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
        cost_records = self._pf_cost_records[pos]
        proc = self._pf_proc[pos]
        self._pf_pos = pos + 1
        # Interval-midpoint mean arrival: the uniform-arrival assumption
        # of the steady-state identity, exact for this tier's batch-level
        # arrival model.  Empty batches pin it to the boundary.
        mean_arrival = boundary - 0.5 * interval if records > 0 else boundary
        queue = self._queue
        if self._queue_max is not None and len(queue) >= self._queue_max:
            queue.popleft()
            self.total_dropped += 1
            self._m_dropped.inc()
        queue.append(
            [boundary, records, mean_arrival, interval, proc,
             self._job_counter, cost_records]
        )
        self._job_counter += 1
        self.time = boundary
        return self._drain(boundary + interval)

    def _drain(self, until: float) -> List[BatchInfo]:
        queue = self._queue
        completed: List[BatchInfo] = []
        if not queue:
            return completed
        engine = self.engine
        free = engine.free_at
        startup = self.overhead.executor_startup
        execs = self._exec_count
        on_batch_completed = self.listener.on_batch_completed
        while queue:
            head = queue[0]
            batch_time = head[0]
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
            free = end
            info = BatchInfo(
                batch_index=head[5],
                batch_time=batch_time,
                interval=head[3],
                records=head[1],
                num_executors=execs,
                mean_arrival_time=head[2],
                processing_start=start,
                processing_end=end,
                first_after_reconfig=engine._reconfig_pending,
            )
            engine._reconfig_pending = False
            engine.jobs_run += 1
            on_batch_completed(info)
            completed.append(info)
        engine.free_at = free
        if completed:
            self._m_batches.inc(len(completed))
        return completed

    def advance_batches(self, n: int) -> List[BatchInfo]:
        if n < 0:
            raise ValueError("n must be >= 0")
        completed: List[BatchInfo] = []
        for _ in range(n):
            completed.extend(self.advance_one_batch())
        return completed

    def advance_until(self, t: float) -> List[BatchInfo]:
        completed: List[BatchInfo] = []
        while self.time + self._interval <= t:
            completed.extend(self.advance_one_batch())
        return completed

    # -- fault injection ---------------------------------------------------

    def inject_executor_failure(self, executor_id: Optional[int] = None) -> int:
        """Crash one executor; subsequent jobs run on the smaller pool."""
        failed = self.resource_manager.fail_executor(executor_id)
        self._exec_count = self.resource_manager.executor_count
        self.engine.set_profile(self.resource_manager.executors)
        self._invalidate_prefetch()
        return failed

    # -- status ------------------------------------------------------------

    @property
    def pending_batches(self) -> int:
        return len(self._queue)

    def is_stable(self, last_n: int = 5) -> bool:
        recent = self.listener.metrics.recent(last_n)
        if not recent:
            return True
        return all(b.stable for b in recent)

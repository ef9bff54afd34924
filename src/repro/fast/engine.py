"""Vectorized batch-level engine: cost-model arrays to makespans.

The exact scheduler (:class:`repro.engine.task_scheduler.TaskScheduler`)
walks a heap of executor-core slots task by task.  This engine computes
the same quantity — the batch processing time — for *blocks* of batches
at once:

1. per-task base costs come straight from the workload cost model's
   per-stage linear laws (the same ``fixed/P + n·cpr`` split
   :meth:`~repro.workloads.base.Workload.build_job` performs, as a
   ``(batches, partitions)`` array);
2. one mean-1 lognormal draw covers every task of every stage execution
   in the block;
3. the LPT fold exploits that within one stage all tasks are near-equal
   (an even record split differs by at most one record), so the greedy
   earliest-free-core schedule the exact heap computes reduces to a
   *static assignment* — a pure function of the core speed profile and
   the partition count, computed once (:func:`greedy_assignment`, the
   heap's pop order as one sorted array) and memoized process-wide, so
   every engine that returns to a pool reuses it.  Per-core loads
   then follow in closed form from each batch's record split, and
   per-task noise folds into one aggregated mean-1
   lognormal multiplier per core (same mean, variance shrunk by its
   task count — the exact distribution of an averaged mean-1 lognormal
   to second order);
4. serial driver overheads (batch setup, per-stage-execution setup and
   coordination, per-task dispatch on the critical core) are charged
   exactly as the overhead model specifies.

Iterated ML stages draw their per-batch iteration counts in one
``integers`` call and expand to stage-execution rows with ``repeat``;
per-batch stage times come back via ``bincount``.  When the pool has at
least one core per task no assignment is needed at all (each task runs
alone on one core, popped in executor order off the barrier tie exactly
as the heap does), which is what makes 10k-executor scenarios cheap.

A lone batch of a workload without iterated stages (a queued batch
re-costed after a reconfiguration) skips the block machinery: the same
float operations run on scalars and per-core 1-D arrays, bit for bit.

The ``fluid`` mode evaluates the utilization law
(:func:`fluid_proc_times`) over the same arrays: no noise, mean
iteration counts, instant.  The law is written only there; the
utilization oracle (:mod:`repro.check.oracles`) calls it too.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.cluster.executor import Executor
from repro.engine.overhead import OverheadModel
from repro.streaming.batch_queue import BatchQueue, QueuedBatch
from repro.streaming.listener import StreamingListener
from repro.streaming.metrics import BatchInfo
from repro.streaming.simulator import BusyTimeline
from repro.workloads.base import Workload


def greedy_assignment(per_task: np.ndarray, tasks: int) -> np.ndarray:
    """Cores of the first ``tasks`` pops of an earliest-free-core heap.

    The heap holds one ``(free_at, core)`` entry per core, all free at
    0; each pop assigns a task and pushes ``free_at + per_task[core]``
    back.  Core ``c`` is popped at the running sums ``0, p, p + p, ...``
    of ``p = per_task[c]`` (``cumsum`` adds in the same order), so the
    pop sequence is the merge of those rows with ties to the lower core:
    a stable sort of the row-major table of pop times.  Each row holds
    ``depth`` pop times; a core that used all of them could have taken
    more, so the table doubles until none does.
    """
    cores = per_task.shape[0]
    spread = float(per_task.max() / per_task.min())
    depth = min(tasks, int(math.ceil(tasks / cores * spread)) + 2)
    while True:
        times = np.zeros((cores, depth))
        times[:, 1:] = per_task[:, None]
        np.cumsum(times, axis=1, out=times)
        order = np.argsort(times.ravel(), kind="stable")[:tasks]
        assign = order // depth
        if depth == tasks or np.bincount(assign).max() < depth:
            return assign
        depth = min(2 * depth, tasks)


def _pool_key(executors: Sequence[Executor]) -> tuple:
    """Each executor's ``(cores, speed_factor, io_penalty)``, in pool order.

    Everything an :class:`ExecutorProfile` is built from.
    """
    return tuple([(ex.cores, ex.speed_factor, ex.io_penalty) for ex in executors])


class _LruMemo:
    """A map that keeps its ``cap`` most recently used entries."""

    __slots__ = ("cap", "entries")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.entries: OrderedDict = OrderedDict()

    def get(self, key):
        hit = self.entries.get(key)
        if hit is not None:
            self.entries.move_to_end(key)
        return hit

    def put(self, key, value):
        self.entries[key] = value
        if len(self.entries) > self.cap:
            self.entries.popitem(last=False)
        return value


#: Process-wide memos of the per-pool set-up, shared by every engine.
#: Online tuners revisit a few pools over and over (one ``repro
#: tournament`` operation re-scales 432 times onto 30 distinct pools),
#: and the reuse is across a sweep's cells, so the memos outlive any one
#: engine.  Each key holds everything its entry is computed from:
#: profiles are keyed by :func:`_pool_key`; static assignments
#: (:meth:`FastBatchEngine._assignment`) by the profile's ``memo_id``,
#: ``io_fraction``, ``partitions``, the engine's noise sigma and the task
#: dispatch cost.  A ``memo_id`` stands for its pool key (the profile is
#: a pure function of it) and is cheaper to hash; a profile rebuilt after
#: eviction gets a new one, so stale entries just age out.  The caps
#: bound memory; a least recently used entry is rebuilt on its next use,
#: identically.
_PROFILES = _LruMemo(64)
_ASSIGNMENTS = _LruMemo(256)
_MEMO_IDS = itertools.count()


def _executor_profile(executors: Sequence[Executor]) -> "ExecutorProfile":
    """The (shared, read-only) profile of ``executors``, memoized."""
    key = _pool_key(executors)
    hit = _PROFILES.get(key)
    if hit is None:
        hit = _PROFILES.put(key, ExecutorProfile(executors))
    return hit


class ExecutorProfile:
    """Per-core speed/penalty arrays for one executor pool snapshot.

    Rebuilt whenever the pool changes (scale up/down, crash) — cheap,
    O(cores) — so the engine's vector math never touches ``Executor``
    objects on the per-batch path.  ``memo_id`` numbers the profile,
    never reused in a process: it keys the memoized assignments.
    """

    __slots__ = (
        "memo_id",
        "num_executors",
        "total_cores",
        "inv_speed",
        "io_penalty",
        "compute_capacity",
        "mean_io_penalty",
        "uniform",
    )

    def __init__(self, executors: Sequence[Executor]) -> None:
        if not executors:
            raise ValueError("profile needs at least one executor")
        self.memo_id = next(_MEMO_IDS)
        cores = [ex.cores for ex in executors]
        speed_arr = np.repeat(
            np.array([ex.speed_factor for ex in executors], dtype=np.float64),
            cores,
        )
        self.num_executors = len(executors)
        self.total_cores = speed_arr.shape[0]
        self.inv_speed = 1.0 / speed_arr
        self.io_penalty = np.repeat(
            np.array([ex.io_penalty for ex in executors], dtype=np.float64),
            cores,
        )
        self.compute_capacity = float(speed_arr.sum())
        self.mean_io_penalty = float(self.io_penalty.mean())
        self.uniform = bool(
            np.ptp(speed_arr) < 1e-12 and np.ptp(self.io_penalty) < 1e-12
        )
        # Shared through the memo: read-only.
        self.inv_speed.flags.writeable = False
        self.io_penalty.flags.writeable = False

    def core_factors(self, io_fraction: float) -> np.ndarray:
        """Per-core seconds per unit of speed-1 work at ``io_fraction``.

        A task whose speed-1 cost is ``w`` with an ``io_fraction`` share
        of I/O runs in ``w * f_c`` seconds on core ``c``.
        """
        return (1.0 - io_fraction) * self.inv_speed + io_fraction * self.io_penalty


def fluid_proc_times(
    workload: Workload,
    overhead: OverheadModel,
    profile: ExecutorProfile,
    cost_records: Sequence[int],
) -> np.ndarray:
    """The utilization law: processing times of batches on ``profile``.

    ``cost_records`` holds each batch's *effective* record count.  Per
    stage execution, compute divides by the pool's capacity, I/O pays
    the mean disk penalty over the cores, plus stage setup,
    coordination and task dispatch; iterated stages run their mean
    iteration count.  The fluid tier and the utilization oracle both
    evaluate this one function.
    """
    model = workload.COST_MODEL
    serial = overhead.stage_setup + overhead.coordination_cost(profile.num_executors)
    cores = float(profile.total_cores)
    dispatch = workload.partitions * overhead.task_dispatch / cores
    crf = np.asarray(cost_records, dtype=np.float64)
    t = np.full(crf.shape[0], overhead.batch_setup)
    for sc in model.stages:
        reps = model.iterations.mean if sc.name in model.iterated_stages else 1.0
        compute = crf * sc.compute_per_record + sc.fixed_compute
        io = crf * sc.io_per_record
        t += reps * (
            serial
            + compute / profile.compute_capacity
            + io * profile.mean_io_penalty / cores
            + dispatch
        )
    return t


class FastBatchEngine(BusyTimeline):
    """Block-vectorized (or fluid) batch processing-time engine.

    The fast tiers' coster: it shares the busy timeline and drain loop
    of the exact :class:`~repro.streaming.simulator.MicroBatchEngine`,
    so controllers and invariant checks see one surface on every tier.
    Processing times are costed a block of batches at a time
    (:meth:`prefetch`); :meth:`prepare` serves them in order, and
    :meth:`run` re-costs a batch made stale by a reconfiguration.
    """

    def __init__(
        self,
        workload: Workload,
        overhead: OverheadModel,
        rng: np.random.Generator,
        listener: StreamingListener,
        noise_sigma: float = 0.10,
        mode: str = "vectorized",
    ) -> None:
        if mode not in ("vectorized", "fluid"):
            raise ValueError(
                f"mode must be 'vectorized' or 'fluid', got {mode!r}"
            )
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
        self.workload = workload
        self.overhead = overhead
        self.rng = rng
        self.sigma = float(noise_sigma)
        self.mode = mode
        self.profile: ExecutorProfile | None = None
        super().__init__(listener)
        #: Fresh executors pay the one-time startup charge on the next
        #: job (initial pool included — warmup absorbs it, as exact).
        self.startup_pending = True
        #: The prefetched (processing time, effective records) pairs.
        self._block: Iterator[Tuple[float, int]] = iter(())
        self._batches = 0

    def set_profile(self, executors: Sequence[Executor]) -> None:
        """Snapshot the current executor pool into array form."""
        self.profile = _executor_profile(executors)

    # -- the coster ----------------------------------------------------------

    def prefetch(self, cost_records: List[int]) -> None:
        """Cost the next block of batches in one call."""
        proc = self.batch_proc_times(cost_records).tolist()
        self._block = zip(proc, cost_records)

    def serve(self, k: int) -> List[Tuple[float, int]]:
        """The next ``k`` prefetched (processing time, effective records)
        pairs, for a run of batches (:meth:`drain_run`)."""
        return list(itertools.islice(self._block, k))

    def prepare(self, batch: QueuedBatch) -> None:
        """Serve the batch's prefetched processing time."""
        batch.cost, batch.cost_records = next(self._block)
        batch.batch_index = self._batches
        self._batches += 1

    def run(self, batch: QueuedBatch, start: float) -> Tuple[float, int]:
        """Re-cost a stale batch on the live pool; charge executor startup."""
        proc = batch.cost
        if proc is None:
            proc = float(self.batch_proc_times([batch.cost_records])[0])
        if self.startup_pending:
            proc += self.overhead.executor_startup
            self.startup_pending = False
        return start + proc, self.profile.num_executors

    def drain_run(
        self,
        queue: BatchQueue,
        bounds: Sequence[float],
        records: Sequence[int],
        means: Sequence[float],
        costs: Sequence[Tuple[float, int]],
        interval: float,
        on_dropped: Callable[[], object],
    ) -> List[BatchInfo]:
        """Enqueue and drain the batches closed at ``bounds`` (their
        ``records`` and ``means`` of arrival), costed by :meth:`serve`:
        per boundary, what :meth:`prepare`, ``queue.enqueue`` and
        :meth:`drain` up to the next boundary do in a single step.

        The run's own batches wait behind the queue's, as positions
        into these lists: the same evictions (oldest first), the same
        ``max`` start and :meth:`run`'s sum on plain values.  The queue
        books the run at the end (:meth:`BatchQueue.book_run`) and takes
        the batches still waiting as :class:`QueuedBatch`.
        ``on_dropped`` is called for each evicted batch.
        """
        completed: List[BatchInfo] = []
        on_batch_completed = self.listener.on_batch_completed
        executors = self.profile.num_executors
        startup = self.overhead.executor_startup
        cap = queue.max_length
        first = self._batches
        dropped_records: List[int] = []
        peak = 0
        evicted = None
        # The queue's own batches are older than the run's, so they
        # leave (evicted or drained) first; while any wait, the run's
        # wait behind them.  The run's batches waiting at step j are
        # positions head .. j: they also leave oldest first.
        waiting_before = len(queue)
        head = 0
        free = self.free_at
        fresh = self.startup_pending
        first_after = self._reconfig_pending
        for j, boundary in enumerate(bounds):
            waiting = waiting_before + j + 1 - head
            if cap is not None and waiting > cap:
                if waiting_before:
                    evicted = queue.evict_oldest()
                    waiting_before -= 1
                else:
                    evicted = head
                    dropped_records.append(records[head])
                    head += 1
                on_dropped()
            else:
                evicted = None
                if waiting > peak:
                    peak = waiting
            until = boundary + interval
            if waiting_before:
                self.free_at = free
                self.startup_pending = fresh
                self._reconfig_pending = first_after
                completed += self.drain(queue, until)
                free = self.free_at
                fresh = self.startup_pending
                first_after = self._reconfig_pending
                waiting_before = len(queue)
                if waiting_before:
                    continue
            while head <= j:
                batch_time = bounds[head]
                start = free if free > batch_time else batch_time
                if start >= until:
                    break
                proc = costs[head][0]
                if fresh:
                    proc += startup
                    fresh = False
                free = start + proc
                info = BatchInfo(
                    first + head, batch_time, interval, records[head],
                    executors, means[head], start, free, first_after,
                )
                first_after = False
                on_batch_completed(info)
                completed.append(info)
                head += 1
        self.free_at = free
        self.startup_pending = fresh
        self._reconfig_pending = first_after
        dequeued = head - len(dropped_records)
        self.jobs_run += dequeued
        self._batches = first + len(bounds)

        def queued(i: int) -> QueuedBatch:
            batch = QueuedBatch(
                bounds[i], records[i], means[i], interval, costs[i][0]
            )
            batch.cost_records = costs[i][1]
            batch.batch_index = first + i
            return batch

        queue.book_run(
            len(bounds), dequeued, dropped_records, peak,
            [queued(i) for i in range(head, len(bounds))],
            queued(evicted) if type(evicted) is int else evicted,
        )
        return completed

    # -- batch costs ---------------------------------------------------------

    def batch_proc_times(self, cost_records: Sequence[int]) -> np.ndarray:
        """Processing times for a block of batches.

        ``cost_records`` holds each batch's *effective* record count
        (post window expansion).  Vectorized mode consumes RNG state —
        iteration draws then task noise, in block order — so results
        are deterministic per (seed, call sequence).  One batch of a
        workload without iterated stages takes the scalar form
        (:meth:`_one_batch_proc_time`); everything else, the block path.
        """
        if self.profile is None:
            raise RuntimeError("set_profile() must run before batch costs")
        if self.mode == "fluid":
            cr = np.asarray(cost_records, dtype=np.int64)
            return fluid_proc_times(
                self.workload, self.overhead, self.profile, cr
            )
        if (
            len(cost_records) == 1
            and not self.workload.COST_MODEL.iterated_stages
        ):
            return np.array([self._one_batch_proc_time(int(cost_records[0]))])
        return self._vectorized_proc_times(
            np.asarray(cost_records, dtype=np.int64)
        )

    def _one_batch_proc_time(self, records: int) -> float:
        """One batch's processing time: the block path at ``k = 1``.

        Most single-batch calls re-cost a queued batch after a
        reconfiguration, where the block path's time is nearly all fixed
        numpy overhead.  This form runs the same float operations in the
        same order on scalars and per-core 1-D arrays, draws the same
        random numbers, and applies ``np.exp`` to a contiguous float64
        array as the block path does, so its result is bit for bit the
        block path's.  Only for workloads without iterated stages.
        """
        prof = self.profile
        ov = self.overhead
        model = self.workload.COST_MODEL
        partitions = self.workload.partitions
        serial = ov.stage_setup + ov.coordination_cost(prof.num_executors)
        dispatch = ov.task_dispatch
        sigma = self.sigma
        rng = self.rng
        im = model.iterations
        if im.lo != im.hi:
            rng.integers(im.lo, im.hi + 1, size=1)  # drawn, as in blocks

        base, rem = divmod(records, partitions)
        cr = float(records)
        proc = ov.batch_setup
        for sc in model.stages:
            q = sc.fixed_compute / partitions
            u = sc.compute_per_record + sc.io_per_record
            compute_total = cr * sc.compute_per_record + sc.fixed_compute
            io_total = cr * sc.io_per_record
            denom = compute_total + io_total
            io_fraction = io_total / denom if denom > 0.0 else 0.0
            if prof.total_cores >= partitions:
                w = (base + (np.arange(partitions) < rem)) * u + q
                if sigma:
                    z = rng.standard_normal(size=partitions)
                    w = w * np.exp(sigma * z - 0.5 * sigma**2)
                factors = prof.core_factors(io_fraction)
                if prof.uniform:
                    span = w.max() * factors[0] + dispatch
                else:
                    span = (w * factors[:partitions]).max() + dispatch
            else:
                factors, scaled, cum, sig, half_var, idle = self._assignment(
                    io_fraction, partitions
                )
                loads = cum[:, rem] * (u * factors)
                loads += scaled * (u * base + q)
                if sigma:
                    noise = rng.standard_normal(size=prof.total_cores)
                    noise *= sig
                    noise -= half_var
                    np.exp(noise, out=noise)
                    loads *= noise
                loads += idle
                span = loads.max()
            proc += serial + span
        return proc

    def _vectorized_proc_times(self, cr: np.ndarray) -> np.ndarray:
        prof = self.profile
        ov = self.overhead
        model = self.workload.COST_MODEL
        partitions = self.workload.partitions
        k = cr.shape[0]
        serial = ov.stage_setup + ov.coordination_cost(prof.num_executors)

        im = model.iterations
        if im.lo == im.hi:
            iters = np.full(k, im.lo, dtype=np.int64)
        else:
            iters = self.rng.integers(im.lo, im.hi + 1, size=k)

        # Even split of records over partitions — the array form of
        # build_job's divmod loop.  The remainder goes to the first
        # partitions, so tasks are born in LPT (longest-first) order.
        base, rem = np.divmod(cr, partitions)
        cr_sum = float(cr.sum())

        proc = np.full(k, ov.batch_setup)
        row_batch = None  # built lazily, only if a stage iterates
        for sc in model.stages:
            # Per-task cost law of build_job: fixed/P + n_i * per-record.
            q = sc.fixed_compute / partitions
            u = sc.compute_per_record + sc.io_per_record
            compute_total = cr_sum * sc.compute_per_record + k * sc.fixed_compute
            io_total = cr_sum * sc.io_per_record
            denom = compute_total + io_total
            io_fraction = io_total / denom if denom > 0.0 else 0.0
            if sc.name in model.iterated_stages:
                if row_batch is None:
                    row_batch = np.repeat(np.arange(k), iters)
                makespans = self._stage_makespans(
                    base, rem, q, u, io_fraction, partitions, row_batch
                )
                stage_time = np.bincount(
                    row_batch, weights=makespans, minlength=k
                )
                proc += iters * serial + stage_time
            else:
                proc += serial + self._stage_makespans(
                    base, rem, q, u, io_fraction, partitions
                )
        return proc

    def _assignment(self, io_fraction: float, partitions: int) -> tuple:
        """Static LPT task→core assignment for near-equal tasks.

        Greedy earliest-free-core scheduling of ``partitions`` equal
        tasks over the profile's cores — the schedule the exact heap
        produces up to intra-stage noise — computed once by
        :func:`greedy_assignment` and memoized process-wide (see
        ``_ASSIGNMENTS``).  Returns ``(factors, scaled, cum, sig,
        half_var, idle)``, each a row per core: per-core cost factors;
        ``scaled = factors * counts`` with ``counts`` the per-core task
        counts; the integer prefix table ``cum[c, r]`` = how many of the
        first ``r`` tasks land on core ``c`` (first ``r`` tasks carry the
        remainder record); the per-core aggregated noise sigma (a mean of
        ``counts[c]`` mean-1 lognormals has its variance shrunk by
        ``counts[c]``) and ``half_var = 0.5 * sig * sig``; and the
        per-core dispatch total ``idle = counts * task_dispatch``.
        """
        prof = self.profile
        dispatch = self.overhead.task_dispatch
        key = (prof.memo_id, io_fraction, partitions, self.sigma, dispatch)
        hit = _ASSIGNMENTS.get(key)
        if hit is not None:
            return hit
        cores = prof.total_cores
        factors = prof.core_factors(io_fraction)
        assign = greedy_assignment(factors + dispatch, partitions)
        # Counts up to ``partitions`` fit the smallest such integer type;
        # converting them to float later is exact.
        dtype = np.min_scalar_type(partitions)
        onehot = np.zeros((partitions, cores), dtype=dtype)
        onehot[np.arange(partitions), assign] = 1
        # Summed down the one-hot's columns (one pass over all cores per
        # task) straight into the transposed view of the row-per-core
        # table: no transposed copy, and, past a few dozen tasks, faster
        # than an in-place prefix sum along each core's row.
        cum = np.zeros((cores, partitions + 1), dtype=dtype)
        np.cumsum(onehot, axis=0, dtype=dtype, out=cum.T[1:])
        counts = cum[:, -1].astype(np.float64)
        var = np.expm1(self.sigma**2) / np.maximum(counts, 1.0)
        sig = np.sqrt(np.log1p(var))
        sig[counts == 0.0] = 0.0
        entry = (
            factors, factors * counts, cum, sig, 0.5 * sig * sig,
            counts * dispatch,
        )
        for array in entry:
            array.flags.writeable = False  # shared by every engine
        return _ASSIGNMENTS.put(key, entry)

    def _stage_makespans(
        self,
        base: np.ndarray,
        rem: np.ndarray,
        q: float,
        u: float,
        io_fraction: float,
        partitions: int,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Makespans of one stage execution per row.

        ``base``/``rem`` are the per-batch record split (``divmod`` of
        the effective record count by ``partitions``); ``q``/``u`` the
        stage's fixed-per-task and per-record speed-1 costs; ``rows``,
        for an iterated stage, the batch of each execution.  Noise is
        applied after task ordering, exactly as the exact scheduler
        draws per-attempt noise over its pre-sorted task list.
        """
        prof = self.profile
        dispatch = self.overhead.task_dispatch
        cores = prof.total_cores
        sigma = self.sigma
        if cores >= partitions:
            # One core per task: no queueing, the stage ends with its
            # slowest task.  The exact heap pops the barrier tie in
            # executor order, so task i lands on core i.  Uniform pools
            # reduce to a row-max — the 10k-executor scale path.
            n = base[:, None] + (
                np.arange(partitions)[None, :] < rem[:, None]
            )
            w = n * u + q
            if rows is not None:
                w = w[rows]
            if sigma:
                z = self.rng.standard_normal(size=w.shape)
                w = w * np.exp(sigma * z - 0.5 * sigma**2)
            factors = prof.core_factors(io_fraction)
            if prof.uniform:
                return w.max(axis=1) * factors[0] + dispatch
            return (w * factors[None, :partitions]).max(axis=1) + dispatch
        factors, scaled, cum, sig, half_var, idle = self._assignment(
            io_fraction, partitions
        )
        # Closed-form per-core loads from the static assignment, a row
        # per core (numpy's inner loops run along the batches): core c
        # runs counts[c] tasks of base cost q + u*base (``scaled`` is
        # factors * counts), of which cum[c, rem] carry one extra record.
        loads = cum.take(rem, axis=1) * (u * factors)[:, None]
        loads += np.multiply.outer(scaled, u * base + q)
        if sigma:
            # Drawn one row per execution and transposed before the loads
            # expand to executions: two execution-sized arrays at a time.
            execs = base.shape[0] if rows is None else rows.shape[0]
            z = self.rng.standard_normal(size=(execs, cores))
            noise = np.multiply(z.T, sig[:, None], out=np.empty((cores, execs)))
            del z
            noise -= half_var[:, None]
            np.exp(noise, out=noise)
        if rows is not None:
            loads = loads.take(rows, axis=1)
        if sigma:
            loads *= noise
        loads += idle[:, None]
        return loads.max(axis=0)

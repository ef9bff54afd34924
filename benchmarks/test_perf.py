"""Performance benchmarks for the sweep runner and hot-path speedups.

Headline: a 4-worker fig7-style sweep must (a) return results
bit-identical to the sequential protocol and (b) beat the historical
sequential baseline by >= 3x wall clock once the result cache is warm —
on a multi-core machine the cold parallel run clears that bar by
itself; on a single-core box the cache is what delivers it.  All
component numbers (baseline, cold-parallel, cached, CPU count) land in
``BENCH_perf.json`` so the recorded speedup can be read in context.

Determinism assertions here are hard failures in smoke mode too: CI
runs this module with ``REPRO_PERF_SMOKE=1`` to keep runtimes small,
and a determinism break must fail the perf job regardless of timing.
"""

import gc
import hashlib
import json
import math
import os
import statistics
import time

import pytest

from perfbench.run import calibrated
from repro.cluster.cluster import paper_cluster
from repro.datagen.rates import (
    ConstantRate,
    SpikeRate,
    UniformRandomRate,
    paper_rate_trace,
)
from repro.experiments.fig7_improvement import fig7_optimize_spec
from repro.kafka.cluster import paper_kafka_cluster
from repro.kafka.producer import RateControlledProducer
from repro.kafka.topic import Topic
from repro.runner import ResultCache, SweepRunner
from repro.streaming.metrics import BatchInfo, StreamingMetrics, percentile

from .conftest import emit

#: Smoke mode (CI): shrink repeats/rounds, keep every determinism assert.
SMOKE = bool(os.environ.get("REPRO_PERF_SMOKE"))

WORKLOAD = "logistic_regression"
#: SHA-256 of the exact tier's batch series on the >= 50x configuration
#: (600 batches, seed 101), as ``BatchInfo.to_dict`` JSON with sorted keys.
EXACT_SERIES_DIGEST = (
    "0c0b5c5bbb3dc6b0c3d67acece99ef9cf97c9f6f73431ba32f5f23b7a14fdd35"
)
REPEATS = 2 if SMOKE else 3
#: Vectorized runs whose median times the fast tier's side of the gate.
FAST_REPEATS = 5
ROUNDS = 6 if SMOKE else 12
SWEEP_WORKERS = 4


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _calibrated_timed(fn):
    """``fn()``, its host seconds, and those seconds scaled to
    perfbench's reference CPU speed by the calibration loop run just
    before and after it.

    As in perfbench, the call starts from a freshly collected heap:
    garbage left by earlier work (the exact tier's run, say) is not
    collected, and counted, inside it.
    """

    def run():
        gc.collect()
        return _timed(fn)

    (result, seconds), scale = calibrated(run)
    return result, seconds, seconds * scale


def _dumps(results):
    return json.dumps(results, sort_keys=True)


class TestSweepRunner:
    def test_fig7_sweep_speedup_and_determinism(self, tmp_path, bench_record):
        spec_fast = fig7_optimize_spec(
            WORKLOAD, repeats=REPEATS, rounds=ROUNDS, count_only=True
        )
        spec_full = fig7_optimize_spec(
            WORKLOAD, repeats=REPEATS, rounds=ROUNDS, count_only=False
        )
        # Historical protocol: sequential, full datagen, no cache.
        base_runner = SweepRunner(workers=1)
        base, t_base = _timed(lambda: base_runner.run(spec_full))

        # Reference for the parallel run: same cells, one process.
        seq_runner = SweepRunner(workers=1)
        seq, t_seq = _timed(lambda: seq_runner.run(spec_fast))

        # The optimized path: 4 workers, count-only datagen, cold cache.
        cache = ResultCache(tmp_path)
        par_runner = SweepRunner(workers=SWEEP_WORKERS, cache=cache)
        par, t_par = _timed(lambda: par_runner.run(spec_fast))

        # Determinism gate: parallel == sequential, byte for byte.
        assert _dumps(par.results) == _dumps(seq.results)
        assert par_runner.totals.executed == len(spec_fast)

        # Warm-cache rerun: zero cells executed, zero batches simulated.
        hot_runner = SweepRunner(workers=SWEEP_WORKERS, cache=cache)
        hot, t_hot = _timed(lambda: hot_runner.run(spec_fast))
        assert hot_runner.totals.executed == 0
        assert hot_runner.totals.batches_executed == 0
        assert _dumps(hot.results) == _dumps(seq.results)

        parallel_speedup = t_base / t_par
        cached_speedup = t_base / t_hot
        bench_record(
            workers=SWEEP_WORKERS,
            cpus=os.cpu_count() or 1,
            cells=len(spec_fast),
            baselineSeconds=round(t_base, 3),
            sequentialFastSeconds=round(t_seq, 3),
            parallelSeconds=round(t_par, 3),
            cachedSeconds=round(t_hot, 3),
            parallelSpeedup=round(parallel_speedup, 2),
            cachedSpeedup=round(cached_speedup, 2),
            batchesBaseline=base_runner.totals.batches_executed,
            batchesParallel=par_runner.totals.batches_executed,
            bitIdentical=True,
        )
        emit(
            f"fig7 sweep ({len(spec_fast)} cells, {os.cpu_count()} cpus): "
            f"baseline {t_base:.2f}s | {SWEEP_WORKERS}-worker cold "
            f"{t_par:.2f}s ({parallel_speedup:.1f}x) | warm cache "
            f"{t_hot:.3f}s ({cached_speedup:.1f}x)"
        )
        # The >= 3x contract.  Warm cache must deliver it on any machine;
        # the cold parallel run must also clear it when the hardware can
        # physically parallelize the fan-out.  On boxes with fewer cores
        # than workers the parallel gate is informational only — the
        # numbers above are still recorded so the softening is visible.
        assert cached_speedup >= 3.0
        parallel_gate = not SMOKE and (os.cpu_count() or 1) >= SWEEP_WORKERS
        if parallel_gate:
            assert parallel_speedup >= 3.0
        elif (os.cpu_count() or 1) < SWEEP_WORKERS:
            emit(
                f"parallel gate softened: {os.cpu_count() or 1} cpus < "
                f"{SWEEP_WORKERS} workers (recorded, not asserted)"
            )


class TestHotPaths:
    def test_percentile_sorted_view_cache(self, bench_record):
        n = 500 if SMOKE else 4000
        quantiles = (0.5, 0.95, 0.99)

        def batches(m):
            for i in range(n):
                proc = 1.0 + ((i * 7) % 13) * 0.37
                bt = float(10 + i * 5)
                m.record(BatchInfo(
                    batch_index=i, batch_time=bt, interval=5.0, records=100,
                    num_executors=4, mean_arrival_time=bt - 2.5,
                    processing_start=bt, processing_end=bt + proc,
                ))
                if i % 8 == 0:
                    yield m

        # Cached: the metrics object's lazily-synced sorted views.
        m1 = StreamingMetrics()
        t0 = time.perf_counter()
        cached_vals = [
            [m.processing_time_percentile(q) for q in quantiles]
            for m in batches(m1)
        ]
        t_cached = time.perf_counter() - t0

        # Uncached: sort the full history from scratch at every query.
        m2 = StreamingMetrics()
        t0 = time.perf_counter()
        raw_vals = [
            [percentile([b.processing_time for b in m.batches], q)
             for q in quantiles]
            for m in batches(m2)
        ]
        t_raw = time.perf_counter() - t0

        assert cached_vals == raw_vals  # exactness is the contract
        speedup = t_raw / t_cached if t_cached > 0 else float("inf")
        bench_record(
            batches=n,
            cachedSeconds=round(t_cached, 4),
            uncachedSeconds=round(t_raw, 4),
            speedup=round(speedup, 2),
        )
        emit(
            f"percentile queries over {n} batches: cached {t_cached:.3f}s "
            f"vs from-scratch {t_raw:.3f}s ({speedup:.1f}x)"
        )

    def test_partition_coalescing_compression(self, bench_record):
        horizon = 300.0 if SMOKE else 1800.0
        topic = Topic("bench", 5)
        producer = RateControlledProducer(topic, ConstantRate(10_000.0))
        producer.produce_until(horizon)
        appends = sum(p.nonempty_appends for p in topic.partitions)
        segments = sum(p.segment_count for p in topic.partitions)
        compression = appends / segments

        t0 = time.perf_counter()
        queries = 0
        for p in topic.partitions:
            hi = p.end_offset
            for k in range(200):
                t = horizon * (k / 200.0)
                p.offset_at(t)
                p.mean_arrival_time(0, max(1, int(hi * (k + 1) / 200)))
                queries += 2
        t_q = time.perf_counter() - t0

        bench_record(
            appends=appends,
            segments=segments,
            compression=round(compression, 1),
            queries=queries,
            querySeconds=round(t_q, 4),
        )
        emit(
            f"coalescing: {appends} appends -> {segments} segments "
            f"({compression:.0f}x); {queries} log queries in {t_q:.3f}s"
        )
        # Constant-rate per-tick production must collapse to one segment
        # per partition — the query paths scan segments linearly.
        assert segments == len(topic.partitions)

    def test_count_only_datagen_fast_path(self, bench_record):
        horizon = 600.0 if SMOKE else 3600.0
        trace = UniformRandomRate(7_000, 13_000, hold=10.0, seed=11)

        slow_topic = Topic("bench", 5)
        slow = RateControlledProducer(slow_topic, trace)
        _, t_slow = _timed(lambda: slow.produce_until(horizon))

        fast_topic = Topic("bench", 5)
        fast = RateControlledProducer(fast_topic, trace, count_only=True)
        _, t_fast = _timed(lambda: fast.produce_until(horizon))

        slow_appends = sum(p.nonempty_appends for p in slow_topic.partitions)
        fast_appends = sum(p.nonempty_appends for p in fast_topic.partitions)
        # Totals track the same trace integral (one rounding per span
        # instead of one per tick), and the fast path appends one span
        # per 10 s hold instead of one per 1 s tick.
        assert fast.total_produced == pytest.approx(
            slow.total_produced, abs=horizon
        )
        assert fast_appends * 5 <= slow_appends

        speedup = t_slow / t_fast if t_fast > 0 else float("inf")
        bench_record(
            horizonSeconds=horizon,
            perTickSeconds=round(t_slow, 4),
            countOnlySeconds=round(t_fast, 4),
            speedup=round(speedup, 2),
            perTickAppends=slow_appends,
            countOnlyAppends=fast_appends,
        )
        emit(
            f"datagen over {horizon:.0f}s sim: per-tick {t_slow:.3f}s "
            f"({slow_appends} appends) vs count-only {t_fast:.3f}s "
            f"({fast_appends} appends), {speedup:.1f}x"
        )

    def test_spike_trace_tick_production(self, bench_record):
        """Host seconds per 1 s production tick of the trace ``repro
        report`` runs: a record, not a gate.

        The chaos report's ``SpikeRate`` (wordcount band, seed 7, x0.25
        from 600 s) has no closed-form integral, so every tick runs the
        midpoint rule over 4 cells.  Production goes into the chaos
        run's topic; fastest of ``repeats`` runs.  The total must equal
        the same ticks integrated as one block.
        """
        horizon = 600.0 if SMOKE else 3600.0
        repeats = 3
        trace = SpikeRate(
            paper_rate_trace("wordcount", seed=7),
            spikes=((600.0, math.inf, 0.25),),
        )
        best = float("inf")
        for _ in range(repeats):
            topic = paper_kafka_cluster(paper_cluster().total_cores).topic(
                "events"
            )
            producer = RateControlledProducer(topic, trace)
            _, elapsed = _timed(lambda: producer.produce_until(horizon))
            best = min(best, elapsed)
        ticks = int(horizon)
        assert producer.total_produced == sum(
            trace.records_in(range(ticks), range(1, ticks + 1))
        )
        bench_record(
            horizonSeconds=horizon,
            ticks=ticks,
            partitions=len(topic.partitions),
            repeats=repeats,
            secondsPerTick=best / ticks,
        )
        emit(
            f"spike-trace production ({ticks} ticks, {len(topic.partitions)} "
            f"partitions, fastest of {repeats}): {best * 1e6 / ticks:.1f} us/tick"
        )

    def test_fast_tier_speedup(self, bench_record):
        """The vectorized tier's >= 50x contract against the exact DES.

        Both tiers run the same fig7-style fixed configuration (LR at
        its paper rate band, 10 s x 10 executors) over the same number
        of batches.  The shared rate-trace segment memo is warmed by a
        throwaway fluid pass first so neither timed run pays the
        one-time trace materialization.

        The vectorized run takes ~6 ms, where host jitter alone moves
        one reading by 2x, so its time is the median of
        ``FAST_REPEATS`` runs, each on a fresh deployment.  Each starts
        without the process-wide task-assignment memo, so every run pays
        the one assignment build a single cold run pays.
        """
        from repro.experiments.common import build_experiment
        from repro.fast import engine as fast_engine

        batches = 600

        warm = build_experiment(WORKLOAD, seed=101, fidelity="fluid")
        warm.context.advance_batches(batches)

        exact = build_experiment(WORKLOAD, seed=101, fidelity="exact")
        _, t_exact, c_exact = _calibrated_timed(
            lambda: exact.context.advance_batches(batches)
        )

        fast_runs = []
        for _ in range(FAST_REPEATS):
            fast_engine._ASSIGNMENTS.entries.clear()
            fast = build_experiment(WORKLOAD, seed=101, fidelity="vectorized")
            _, seconds, scaled = _calibrated_timed(
                lambda ctx=fast.context: ctx.advance_batches(batches)
            )
            fast_runs.append((seconds, scaled))
        t_fast = statistics.median(seconds for seconds, _ in fast_runs)
        c_fast = statistics.median(scaled for _, scaled in fast_runs)

        # Near ρ=1 a handful of batches can still be queued when the
        # clock stops; both tiers must have completed nearly all.
        assert len(exact.context.listener.metrics) >= batches - 10
        assert len(fast.context.listener.metrics) >= batches - 10
        # The tiers must agree on the physics, not just the speed.
        pe = exact.context.listener.metrics.mean_processing_time()
        pf = fast.context.listener.metrics.mean_processing_time()
        assert abs(pe - pf) / pe < 0.10

        speedup = t_exact / t_fast if t_fast > 0 else float("inf")
        calibrated_speedup = c_exact / c_fast if c_fast > 0 else float("inf")
        bench_record(
            batches=batches,
            exactSeconds=round(t_exact, 4),
            vectorizedRepeats=FAST_REPEATS,
            vectorizedSeconds=round(t_fast, 4),
            speedup=round(speedup, 1),
            calibratedExactSeconds=round(c_exact, 4),
            calibratedVectorizedSeconds=round(c_fast, 4),
            calibratedSpeedup=round(calibrated_speedup, 1),
            exactMeanProc=round(pe, 3),
            vectorizedMeanProc=round(pf, 3),
        )
        emit(
            f"fast tier ({batches} batches): exact {t_exact:.3f}s vs "
            f"vectorized {t_fast:.4f}s (median of {FAST_REPEATS}; "
            f"{speedup:.0f}x; calibrated "
            f"{calibrated_speedup:.0f}x), mean proc {pe:.2f}s vs {pf:.2f}s"
        )
        assert speedup >= 50.0

    def test_exact_tier_batch_cost(self, bench_record):
        """Host µs per simulated batch of the exact tier: a record, not a
        gate.

        The exact side of the >= 50x configuration (LR at its paper rate
        band, 10 s x 10 executors, 600 batches, seed 101), fastest of
        ``repeats`` runs.  Every run's batch series must hash to the
        pinned digest, so a speedup here cannot change what the tier
        computes.
        """
        from repro.experiments.common import build_experiment

        batches = 600
        repeats = 1 if SMOKE else 5
        best = float("inf")
        for _ in range(repeats):
            setup = build_experiment(WORKLOAD, seed=101, fidelity="exact")
            _, elapsed = _timed(lambda: setup.context.advance_batches(batches))
            series = json.dumps(
                [b.to_dict() for b in setup.context.listener.metrics.batches],
                sort_keys=True,
            )
            digest = hashlib.sha256(series.encode("utf-8")).hexdigest()
            assert digest == EXACT_SERIES_DIGEST
            best = min(best, elapsed)
        us_per_batch = best * 1e6 / batches
        bench_record(
            batches=batches,
            repeats=repeats,
            exactSeconds=round(best, 4),
            usPerBatch=round(us_per_batch, 1),
        )
        emit(
            f"exact tier ({batches} batches, fastest of {repeats}): "
            f"{us_per_batch:.0f} us/batch"
        )

    def test_tournament_cell_throughput(self, bench_record):
        """Host µs per simulated batch of the vectorized tournament cell.

        Every tuner on the ``step`` and ``spike`` scenarios — the ones
        whose traces go through the generic rate integration — at the
        golden seed and budget; each cell's time is its fastest of
        ``repeats`` runs.  Each run's digest must equal its golden, so a
        speedup here cannot change what the cell computes.
        """
        from repro.runner.cells import execute_cell
        from tests.golden.test_tuning_goldens import (
            GOLDEN,
            TOURNAMENT_TUNERS,
            digest,
        )

        def cell(scenario, tuner):
            return execute_cell("tournament", {
                "tuner": tuner, "seed": 0, "scenario": scenario, "budget": 8,
            })

        cell("steady", "random")  # warm imports and one-time setup
        repeats = 1 if SMOKE else 5
        us_per_batch = {}
        calibrated_us = {}
        batches = {}
        for scenario in ("step", "spike"):
            seconds = calibrated_seconds = 0.0
            batches[scenario] = 0
            for tuner in TOURNAMENT_TUNERS:
                best = best_calibrated = float("inf")
                for _ in range(repeats):
                    result, elapsed, scaled = _calibrated_timed(
                        lambda: cell(scenario, tuner)
                    )
                    golden = GOLDEN[f"tournament/{scenario}/{tuner}"]
                    assert digest(result) == golden, f"{scenario}/{tuner}"
                    best = min(best, elapsed)
                    best_calibrated = min(best_calibrated, scaled)
                seconds += best
                calibrated_seconds += best_calibrated
                batches[scenario] += result["batchesExecuted"]
            us_per_batch[scenario] = seconds / batches[scenario] * 1e6
            calibrated_us[scenario] = (
                calibrated_seconds / batches[scenario] * 1e6
            )
        bench_record(
            cells=2 * len(TOURNAMENT_TUNERS),
            stepBatches=batches["step"],
            spikeBatches=batches["spike"],
            stepUsPerBatch=round(us_per_batch["step"], 1),
            spikeUsPerBatch=round(us_per_batch["spike"], 1),
            calibratedStepUsPerBatch=round(calibrated_us["step"], 1),
            calibratedSpikeUsPerBatch=round(calibrated_us["spike"], 1),
            goldenDigests=True,
        )
        emit(
            f"tournament cell (vectorized, {len(TOURNAMENT_TUNERS)} tuners, "
            f"budget 8): step {us_per_batch['step']:.0f} us/batch "
            f"(calibrated {calibrated_us['step']:.0f}) over "
            f"{batches['step']} batches, spike {us_per_batch['spike']:.0f} "
            f"us/batch (calibrated {calibrated_us['spike']:.0f}) over "
            f"{batches['spike']} batches"
        )

    def test_fast_tier_scale_smoke(self, bench_record):
        """10k executors x 1000 partitions x 4 sim-hours in < 10 s wall."""
        from repro.cluster.cluster import homogeneous_cluster
        from repro.datagen.generator import DataGenerator
        from repro.fast import FastStreamingContext
        from repro.kafka.cluster import paper_kafka_cluster
        from repro.streaming.context import StreamingConfig
        from repro.workloads.wordcount import WordCount

        horizon = 4 * 3600.0
        cl = homogeneous_cluster(workers=640, cores_per_node=16)
        wl = WordCount()
        wl.partitions = 1000
        gen = DataGenerator(
            paper_kafka_cluster(64).topic("events"),
            ConstantRate(150_000.0),
            payload_kind=wl.payload_kind,
            seed=0,
        )
        ctx = FastStreamingContext(
            cl, wl, gen, StreamingConfig(10.0, 10_000), seed=0,
        )
        _, wall = _timed(lambda: ctx.advance_until(horizon))
        n = len(ctx.listener.metrics)
        bench_record(
            executors=10_000,
            partitions=1000,
            simHours=round(horizon / 3600.0, 1),
            batches=n,
            wallSeconds=round(wall, 3),
        )
        emit(
            f"scale smoke: 10k executors x 1000 partitions, "
            f"{horizon / 3600.0:.0f}h sim ({n} batches) in {wall:.2f}s wall"
        )
        assert n == int(horizon / 10.0)
        assert wall < 10.0

    def test_scheduler_task_throughput(self, bench_record):
        """Tracking numbers for the scheduling loop: an explicit 64-task
        stage with 64 task sizes on 8 four-core executors, and the shape
        exact runs use, ``build_job`` stages (two task sizes each) of
        logistic regression on 10 one-core executors."""
        import numpy as np

        from repro.cluster.cluster import homogeneous_cluster, paper_cluster
        from repro.cluster.resource_manager import ResourceManager
        from repro.engine.job import BatchJob
        from repro.engine.stage import Stage
        from repro.engine.task import TaskSpec
        from repro.engine.task_scheduler import TaskScheduler
        from repro.workloads import make_workload

        manager = ResourceManager(homogeneous_cluster(workers=4,
                                                      cores_per_node=4))
        for _ in range(8):
            manager.launch_executor()
        executors = manager.executors
        tasks = [
            TaskSpec(task_id=i, records=1000, compute_cost=0.05 + i * 0.001,
                     io_cost=0.01)
            for i in range(64)
        ]
        iterations = 5 if SMOKE else 40
        job = BatchJob(
            job_id=0,
            batch_time=0.0,
            records=64 * 1000,
            stages=[Stage(stage_id=0, name="bench", tasks=tasks,
                          iterations=iterations)],
        )
        scheduler = TaskScheduler()
        rng = np.random.default_rng(7)
        t0 = time.perf_counter()
        run = scheduler.run_job(job, executors, 0.0, rng)
        elapsed = time.perf_counter() - t0
        n_tasks = len(tasks) * iterations
        rate = n_tasks / elapsed if elapsed > 0 else float("inf")

        # ~100k records a batch: logistic regression at its rate band
        # over a 10 s interval.
        workload = make_workload("logistic_regression")
        jobs = [
            workload.build_job(10.0 * i, 100_003, rng)
            for i in range(20 if SMOKE else 200)
        ]
        exact_manager = ResourceManager(paper_cluster())
        exact_manager.scale_to(10)
        t0 = time.perf_counter()
        for built in jobs:
            scheduler.run_job(built, exact_manager.executors, 0.0, rng)
        sized_elapsed = time.perf_counter() - t0
        sized_tasks = sum(built.num_tasks for built in jobs)
        sized_rate = (
            sized_tasks / sized_elapsed if sized_elapsed > 0 else float("inf")
        )
        bench_record(
            tasks=n_tasks,
            seconds=round(elapsed, 4),
            tasksPerSecond=round(rate),
            makespan=round(run.processing_time, 3),
            sizedJobs=len(jobs),
            sizedTasks=sized_tasks,
            sizedSeconds=round(sized_elapsed, 4),
            sizedTasksPerSecond=round(sized_rate),
        )
        emit(
            f"scheduler: {n_tasks} tasks in {elapsed:.3f}s ({rate:,.0f}/s); "
            f"build_job stages: {sized_tasks} tasks in {sized_elapsed:.3f}s "
            f"({sized_rate:,.0f}/s)"
        )
        assert run.processing_time > 0

    def test_import_surface(self, bench_record):
        """Cold-start cost of the lazy package surface.

        Median seconds from spawning an interpreter to its exit for
        ``import repro``, ``import repro.experiments.common`` (what every
        deployment build imports) and ``python -m repro --help``, plus
        the number of ``repro`` modules the second one loads.
        """
        import statistics
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
        commands = {
            "importRepro": ["-c", "import repro"],
            "importCommon": ["-c", "import repro.experiments.common"],
            "cliHelp": ["-m", "repro", "--help"],
        }
        spawns = 3 if SMOKE else 9

        def spawn(args):
            return subprocess.run(
                [sys.executable, *args], env=env, check=True,
                capture_output=True, text=True,
            )

        medians = {}
        for key, args in commands.items():
            samples = [_timed(lambda: spawn(args))[1] for _ in range(spawns)]
            medians[key] = round(statistics.median(samples), 3)
        modules = int(spawn([
            "-c",
            "import sys, repro.experiments.common; print(sum("
            "m == 'repro' or m.startswith('repro.') for m in sys.modules))",
        ]).stdout)
        bench_record(
            spawns=spawns, commonModules=modules,
            **{f"{key}Seconds": value for key, value in medians.items()},
        )
        emit(
            f"import surface (median of {spawns} spawns): import repro "
            f"{medians['importRepro']:.3f}s, experiments.common "
            f"{medians['importCommon']:.3f}s ({modules} repro modules), "
            f"--help {medians['cliHelp']:.3f}s"
        )
        assert modules <= 56

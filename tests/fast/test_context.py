"""FastStreamingContext behavior: the exact context's control surface —
reconfiguration, bounded queue, failure injection — plus the fast tier's
own machinery (adaptive prefetch, stale re-costing, determinism)."""

import numpy as np
import pytest

from repro.cluster.cluster import paper_cluster
from repro.datagen.generator import DataGenerator
from repro.datagen.rates import ConstantRate
from repro.engine.overhead import DEFAULT_OVERHEAD
from repro.experiments.common import build_experiment
from repro.fast import FIDELITIES, FastBatchEngine, FastStreamingContext
from repro.fast.context import _PREFETCH_MAX, _PREFETCH_START
from repro.kafka.cluster import paper_kafka_cluster
from repro.obs import Telemetry
from repro.obs.slo import SLO, SLOEvaluator
from repro.streaming.context import StreamingConfig
from repro.streaming.listener import StreamingListener
from repro.workloads.wordcount import WordCount


def make_fast_context(
    rate: float = 50_000.0,
    interval: float = 5.0,
    executors: int = 10,
    seed: int = 0,
    mode: str = "vectorized",
    **kwargs,
) -> FastStreamingContext:
    cl = paper_cluster()
    kafka = paper_kafka_cluster(cl.total_cores)
    wl = WordCount()
    gen = DataGenerator(
        kafka.topic("events"),
        ConstantRate(rate),
        payload_kind=wl.payload_kind,
        seed=seed,
    )
    return FastStreamingContext(
        cl, wl, gen, StreamingConfig(interval, executors),
        seed=seed, mode=mode, **kwargs,
    )


class TestAdvance:
    def test_batches_complete_and_count(self):
        ctx = make_fast_context()
        ctx.advance_batches(20)
        metrics = ctx.listener.metrics
        assert len(metrics) == 20
        assert ctx.engine.jobs_run == 20
        assert ctx.time == pytest.approx(20 * 5.0)

    def test_advance_until(self):
        ctx = make_fast_context(interval=4.0)
        ctx.advance_until(41.0)
        assert ctx.time == pytest.approx(40.0)

    def test_batch_info_fields(self):
        ctx = make_fast_context()
        ctx.advance_batches(5)
        b = ctx.listener.metrics.batches[0]
        assert b.records == 250_000  # 50k rec/s x 5 s
        assert b.mean_arrival_time == pytest.approx(b.batch_time - 2.5)
        assert b.processing_start >= b.batch_time
        assert b.num_executors == 10

    def test_determinism_same_seed(self):
        a = make_fast_context(seed=9)
        b = make_fast_context(seed=9)
        a.advance_batches(30)
        b.advance_batches(30)
        pa = [x.processing_time for x in a.listener.metrics.batches]
        pb = [x.processing_time for x in b.listener.metrics.batches]
        assert pa == pb

    def test_different_seeds_differ(self):
        a = make_fast_context(seed=1)
        b = make_fast_context(seed=2)
        a.advance_batches(10)
        b.advance_batches(10)
        pa = [x.processing_time for x in a.listener.metrics.batches]
        pb = [x.processing_time for x in b.listener.metrics.batches]
        assert pa != pb

    def test_boundary_hooks_fire(self):
        ctx = make_fast_context()
        seen = []
        ctx.add_boundary_hook(seen.append)
        ctx.advance_batches(3)
        assert seen == [pytest.approx(5.0), pytest.approx(10.0),
                        pytest.approx(15.0)]


class TestPrefetch:
    def test_block_grows_geometrically(self):
        ctx = make_fast_context()
        assert ctx.receiver._size == _PREFETCH_START
        ctx.advance_batches(_PREFETCH_START + 1)
        assert ctx.receiver._size > _PREFETCH_START
        assert ctx.receiver._size <= _PREFETCH_MAX

    def test_reconfig_resets_block(self):
        ctx = make_fast_context()
        ctx.advance_batches(_PREFETCH_START + 1)
        ctx.change_configuration(batch_interval=6.0)
        assert ctx.receiver._size == _PREFETCH_START

    def test_prefetch_matches_single_batch_costing(self):
        """Prefetched processing times equal batch-at-a-time costing at
        σ=0 (noise draws consume the shared RNG in a different order, so
        only the noise-free engine is directly comparable)."""
        a = make_fast_context(noise_sigma=0.0)
        a.advance_batches(12)
        pa = [x.processing_time for x in a.listener.metrics.batches]

        b = make_fast_context(noise_sigma=0.0)
        engine = FastBatchEngine(
            b.workload, DEFAULT_OVERHEAD, np.random.default_rng(0),
            StreamingListener(), noise_sigma=0.0,
        )
        engine.set_profile(b.resource_manager.executors)
        records = b.workload.effective_records(250_000)
        one = float(
            engine.batch_proc_times(np.asarray([records], dtype=np.int64))[0]
        )
        # First batch carries the executor-startup charge.
        assert pa[0] == pytest.approx(
            one + DEFAULT_OVERHEAD.executor_startup
        )
        assert pa[1] == pytest.approx(one)


class TestReconfiguration:
    def test_interval_change_applies_and_pauses(self):
        ctx = make_fast_context()
        ctx.advance_batches(5)
        free_before = ctx.engine.free_at
        ctx.change_configuration(batch_interval=8.0)
        assert ctx.batch_interval == 8.0
        assert ctx.config_changes == 1
        assert ctx.engine.total_pause_injected == pytest.approx(
            DEFAULT_OVERHEAD.reconfig_pause
        )
        assert ctx.engine.free_at >= free_before

    def test_scale_change_rebuilds_profile(self):
        ctx = make_fast_context()
        ctx.advance_batches(3)
        cores_before = ctx.engine.profile.total_cores
        ctx.change_configuration(num_executors=16)
        assert ctx.num_executors == 16
        assert ctx.engine.profile.total_cores > cores_before

    def test_noop_change_costs_nothing(self):
        ctx = make_fast_context()
        ctx.change_configuration(batch_interval=5.0, num_executors=10)
        assert ctx.config_changes == 0
        assert ctx.engine.total_pause_injected == 0.0

    def test_first_batch_after_reconfig_flagged(self):
        ctx = make_fast_context()
        ctx.advance_batches(5)
        ctx.change_configuration(num_executors=12)
        completed = ctx.advance_batches(8)
        flagged = [b for b in completed if b.first_after_reconfig]
        assert len(flagged) == 1

    def test_invalid_values_rejected(self):
        ctx = make_fast_context()
        with pytest.raises(ValueError):
            ctx.change_configuration(batch_interval=0.0)
        with pytest.raises(ValueError):
            ctx.change_configuration(num_executors=0)
        with pytest.raises(ValueError):
            ctx.change_configuration(partitions=0)

    def test_queued_batches_recosted_on_live_pool(self):
        """Batches queued before a reconfiguration run on the new pool:
        at σ=0, post-reconfig processing reflects the larger pool."""
        ctx = make_fast_context(
            rate=200_000.0, interval=2.0, executors=2, noise_sigma=0.0
        )
        ctx.advance_batches(6)  # overloaded: queue builds up
        assert len(ctx.queue) > 0
        ctx.change_configuration(num_executors=18)
        done = ctx.advance_batches(20)
        post = [b for b in done if b.first_after_reconfig]
        # The stale batch was re-costed under 18 executors, so it is far
        # cheaper than the 2-executor batches before it.
        pre_mean = np.mean(
            [b.processing_time
             for b in ctx.listener.metrics.batches[:4]]
        )
        assert post[0].processing_time < pre_mean


class TestWindowedWorkload:
    """The prefetch sizes a windowed workload's batches ahead, but the live
    window holds exactly the formed batches, as on the exact tier, and
    every batch is priced against it, across reconfigurations too."""

    @staticmethod
    def _served(ctx):
        """Spy on the coster: (records, effective records) per formed
        batch, whether it forms in a single step or in a run."""
        served = []
        prepare = ctx.engine.prepare
        drain_run = ctx.engine.drain_run

        def spy(batch):
            prepare(batch)
            served.append((batch.records, batch.cost_records))

        def spy_run(queue, bounds, records, means, costs, *rest):
            served.extend((n, c) for n, (_, c) in zip(records, costs))
            return drain_run(queue, bounds, records, means, costs, *rest)

        ctx.engine.prepare = spy
        ctx.engine.drain_run = spy_run
        return served

    def test_window_holds_formed_batches(self):
        setup = build_experiment(
            "windowed_wordcount", seed=3, fidelity="vectorized"
        )
        ctx, wl = setup.context, setup.workload
        served = self._served(ctx)
        ctx.advance_batches(5)
        formed = [r for r, _ in served]
        assert list(wl._window_counts) == formed
        ctx.change_configuration(batch_interval=7.0, num_executors=12)
        ctx.advance_batches(4)
        formed = [r for r, _ in served]
        assert len(formed) == 9
        assert list(wl._window_counts) == formed[-wl.window_batches:]

    @pytest.mark.parametrize("incremental", [True, False])
    def test_batches_priced_against_formed_window(self, incremental):
        from repro.workloads.windowed import WindowedWordCount

        setup = build_experiment(
            "windowed_wordcount", seed=3, fidelity="vectorized"
        )
        setup.workload.incremental = incremental
        ctx = setup.context
        served = self._served(ctx)
        ctx.advance_batches(5)
        ctx.change_configuration(batch_interval=3.0)
        ctx.advance_batches(3)
        ctx.change_configuration(num_executors=14)
        ctx.advance_batches(12)
        replay = WindowedWordCount(incremental=incremental)
        assert [c for _, c in served] == [
            replay.effective_records(r) for r, _ in served
        ]


class TestQueueBound:
    def test_oldest_batch_evicted_at_capacity(self):
        ctx = make_fast_context(
            rate=400_000.0, interval=2.0, executors=1,
            queue_max_length=3,
        )
        ctx.advance_batches(12)
        assert ctx.queue.total_dropped > 0
        assert len(ctx.queue) <= 3

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_zero_length_queue_rejected_on_every_tier(self, fidelity):
        """Every tier builds the one batch queue, so a bound of 0 fails at
        construction instead of mid-run."""
        with pytest.raises(ValueError, match="max_length"):
            build_experiment(
                "logistic_regression", seed=0, queue_max_length=0,
                fidelity=fidelity,
            )


class TestStreamingTelemetry:
    """Every tier reports through the same ``repro_streaming_*`` families,
    so registry-backed SLOs judge fast-tier runs too."""

    @staticmethod
    def _overloaded(fidelity: str):
        setup = build_experiment(
            "logistic_regression", seed=0, batch_interval=2.0,
            num_executors=2, queue_max_length=3, telemetry=Telemetry(),
            fidelity=fidelity,
        )
        setup.context.advance_batches(60)
        return setup

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_queue_drops_fail_the_data_loss_slo(self, fidelity):
        setup = self._overloaded(fidelity)
        ctx = setup.context
        dropped = 60 - len(ctx.listener.metrics) - len(ctx.queue)
        assert dropped > 10
        slo = SLO(
            name="loss", objective="counter_max", threshold=10.0,
            metric="repro_streaming_batches_dropped_total",
        )
        verdict = SLOEvaluator([slo]).verdicts(
            registry=setup.telemetry.metrics
        )[0]
        assert not verdict.passed
        assert verdict.value == dropped

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_config_gauges_follow_reconfiguration(self, fidelity):
        setup = self._overloaded(fidelity)
        setup.context.change_configuration(
            batch_interval=3.0, num_executors=5
        )
        registry = setup.telemetry.metrics
        assert registry.get(
            "repro_streaming_batch_interval_seconds"
        ).value == 3.0
        assert registry.get("repro_streaming_executors").value == 5
        assert registry.get(
            "repro_streaming_reconfigurations_total"
        ).value == 1


class TestFailureInjection:
    def test_failure_shrinks_pool_without_config_change(self):
        ctx = make_fast_context()
        ctx.advance_batches(3)
        ctx.inject_executor_failure()
        assert ctx.num_executors == 9
        assert ctx.config_changes == 0
        ctx.advance_batches(3)
        assert ctx.listener.metrics.batches[-1].num_executors == 9


class TestReceiver:
    def test_observed_rate_matches_trace(self):
        ctx = make_fast_context(rate=50_000.0)
        ctx.advance_batches(4)
        assert ctx.receiver.observed_rate(10.0) == pytest.approx(
            50_000.0, rel=1e-6
        )

    def test_stall_rejected(self):
        ctx = make_fast_context()
        with pytest.raises(NotImplementedError):
            ctx.receiver.stall()


class TestEngineValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            FastBatchEngine(
                WordCount(), DEFAULT_OVERHEAD,
                np.random.default_rng(0), StreamingListener(), mode="exact",
            )

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            FastBatchEngine(
                WordCount(), DEFAULT_OVERHEAD,
                np.random.default_rng(0), StreamingListener(),
                noise_sigma=-0.1,
            )


class TestScale:
    def test_large_uniform_pool_many_partitions(self):
        """10k executors x 1000 partitions advances without per-task
        blowup (the scale regime the CI smoke gates on wall-clock)."""
        from repro.cluster.cluster import homogeneous_cluster

        cl = homogeneous_cluster(workers=640, cores_per_node=16)
        kafka = paper_kafka_cluster(64)
        wl = WordCount()
        wl.partitions = 1000
        gen = DataGenerator(
            kafka.topic("events"), ConstantRate(150_000.0),
            payload_kind=wl.payload_kind, seed=0,
        )
        ctx = FastStreamingContext(
            cl, wl, gen, StreamingConfig(10.0, 10_000), seed=0,
        )
        assert ctx.engine.profile.num_executors == 10_000
        assert ctx.engine.profile.total_cores >= 1000
        ctx.advance_batches(50)
        assert len(ctx.listener.metrics) == 50

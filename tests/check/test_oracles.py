"""Analytic oracles: exact on controlled inputs, within tolerance on
real runs, and actually capable of failing."""

import numpy as np
import pytest

from repro.baselines.fixed import run_fixed_configuration
from repro.check.oracles import (
    clean_batches,
    run_oracles,
    steady_state_delay_oracle,
    utilization_oracle,
)
from repro.cluster.executor import Executor
from repro.cluster.node import DiskType, I5_9400, Node, NodeRole
from repro.engine.overhead import ZERO_OVERHEAD
from repro.engine.task_scheduler import NoiseModel, TaskScheduler
from repro.experiments.common import build_experiment
from repro.fast.engine import ExecutorProfile, fluid_proc_times
from repro.streaming.metrics import BatchInfo
from repro.workloads import make_workload


def _info(idx, bt, interval=10.0, records=1000, sched=0.0, proc=3.0,
          executors=10):
    start = bt + sched
    return BatchInfo(
        batch_index=idx,
        batch_time=bt,
        interval=interval,
        records=records,
        num_executors=executors,
        mean_arrival_time=bt - interval / 2,
        processing_start=start,
        processing_end=start + proc,
    )


class TestPredictProcessingTime:
    def test_exact_on_uniform_pool_zero_overhead(self):
        # Homogeneous single-core executors, no overheads, no noise:
        # the utilization law is exact when tasks divide evenly.
        wl = make_workload("wordcount")
        node = Node(1, I5_9400, DiskType.SSD, NodeRole.WORKER, memory_gb=64)
        executors = [
            Executor(executor_id=i, node=node, cores=1, memory_gb=1.0,
                     initialized=True)
            for i in range(4)
        ]
        records = wl.partitions * 4000  # divides evenly over partitions
        predicted = fluid_proc_times(
            wl, ZERO_OVERHEAD, ExecutorProfile(executors), [records]
        )[0]
        rng = np.random.default_rng(0)
        job = wl.build_job(0.0, records, rng)
        scheduler = TaskScheduler(
            overhead=ZERO_OVERHEAD, noise=NoiseModel(sigma=0.0)
        )
        run = scheduler.run_job(job, executors, 0.0, rng)
        # WordCount has one iterated=1 pipeline, so the only slack is
        # LPT imbalance; with equal task sizes that is zero.
        assert run.processing_time == pytest.approx(predicted, rel=0.02)

    def test_needs_executors(self):
        wl = make_workload("wordcount")
        with pytest.raises(ValueError):
            utilization_oracle(wl, [_info(0, bt=10.0)], [], ZERO_OVERHEAD)


class TestSteadyStateOracle:
    def test_identity_holds_on_synthetic_batches(self):
        batches = [_info(i, bt=10.0 * (i + 1)) for i in range(10)]
        res = steady_state_delay_oracle(batches)
        assert res.passed
        assert res.samples == 10
        assert res.delta == pytest.approx(0.0, abs=1e-9)

    def test_detects_broken_delay_accounting(self):
        # Batches whose e2e delay is double what the identity demands
        # (e.g. a simulator bug double-counting wait time) must fail.
        batches = [
            BatchInfo(
                batch_index=i,
                batch_time=10.0 * (i + 1),
                interval=10.0,
                records=1000,
                num_executors=10,
                mean_arrival_time=10.0 * (i + 1) - 9.9,  # ~full interval
                processing_start=10.0 * (i + 1),
                processing_end=10.0 * (i + 1) + 3.0,
            )
            for i in range(10)
        ]
        res = steady_state_delay_oracle(batches)
        assert not res.passed

    def test_empty_input_skips(self):
        res = steady_state_delay_oracle([])
        assert res.samples == 0
        assert res.passed
        assert "skipped" in res.render()


class TestUtilizationOracle:
    def test_real_run_within_tolerance(self):
        setup = build_experiment("logistic_regression", seed=11)
        run_fixed_configuration(setup.context, batches=12, warmup=3)
        results = run_oracles(setup, warmup=3)
        for res in results:
            assert res.samples > 0
            assert res.passed, res.render()

    def test_detects_factor_level_error(self):
        # Halve the observed processing times: a factor-2 capacity bug
        # must trip the 30% tolerance.
        setup = build_experiment("logistic_regression", seed=11)
        run_fixed_configuration(setup.context, batches=12, warmup=3)
        ctx = setup.context
        halved = [
            BatchInfo(
                batch_index=b.batch_index,
                batch_time=b.batch_time,
                interval=b.interval,
                records=b.records,
                num_executors=b.num_executors,
                mean_arrival_time=b.mean_arrival_time,
                processing_start=b.processing_start,
                processing_end=b.processing_start
                + b.processing_time / 2.0,
            )
            for b in clean_batches(ctx.listener.metrics.batches, warmup=3)
        ]
        res = utilization_oracle(
            setup.workload, halved, ctx.resource_manager.executors,
            ctx.overhead,
        )
        assert not res.passed


class TestWindowedWorkload:
    """The oracles read a windowed workload's cost without sliding its
    live window."""

    @staticmethod
    def _run(fidelity="exact"):
        setup = build_experiment("windowed_wordcount", seed=3,
                                 fidelity=fidelity)
        run_fixed_configuration(setup.context, batches=20, warmup=3)
        return setup

    @pytest.mark.parametrize("fidelity", ["exact", "vectorized"])
    def test_repeated_calls_agree(self, fidelity):
        setup = self._run(fidelity)
        first = run_oracles(setup)
        assert run_oracles(setup) == first

    def test_checked_run_continues_like_its_unchecked_twin(self):
        checked, twin = self._run(), self._run()
        run_oracles(checked)
        for setup in (checked, twin):
            run_fixed_configuration(setup.context, batches=5, warmup=1)
        assert [b.processing_time for b in
                checked.context.listener.metrics.batches] == [
            b.processing_time for b in twin.context.listener.metrics.batches
        ]


class TestCleanBatches:
    def test_filters(self):
        batches = [
            _info(0, bt=10.0),                      # warmup
            _info(1, bt=20.0),
            _info(2, bt=30.0, records=0),           # stall window
            _info(3, bt=40.0, executors=5),         # other config
            _info(4, bt=50.0),
        ]
        out = clean_batches(batches, warmup=1, num_executors=10)
        assert [b.batch_index for b in out] == [1, 4]

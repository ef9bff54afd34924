"""Property-based tests for the fast tier's batch coster set-up.

:class:`~repro.fast.engine.FastBatchEngine` memoizes pool profiles and
static task assignments process-wide, and costs a single batch of a
workload without iterated stages in a scalar form.  These properties
pin both to the block path and to a fresh build, bit for bit: the one-
batch form equals the block path at ``k = 1`` (same result, same RNG
state after), a memo hit equals a fresh build, engines that differ in
noise sigma or task dispatch never share an entry, and evicting at any
cap changes no result.
"""

import contextlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.overhead import DEFAULT_OVERHEAD
from repro.fast import engine as fast_engine
from repro.fast.engine import FastBatchEngine
from repro.streaming.listener import StreamingListener
from repro.workloads.cost_models import (
    IterationModel,
    StageCost,
    WorkloadCostModel,
)
from repro.workloads.wordcount import WordCount

executors = st.lists(
    st.builds(
        SimpleNamespace,
        cores=st.integers(1, 4),
        speed_factor=st.sampled_from([0.55, 0.8, 1.0, 1.3]),
        io_penalty=st.sampled_from([1.0, 1.6, 2.5]),
    ),
    min_size=1, max_size=8,
)
stages = st.lists(
    st.builds(
        StageCost,
        name=st.just(""),
        compute_per_record=st.sampled_from([1.2e-5, 6.0e-6, 5.0e-7]),
        io_per_record=st.sampled_from([0.0, 1.5e-6, 2.0e-6]),
        fixed_compute=st.sampled_from([0.0, 0.05]),
    ),
    min_size=1, max_size=3,
)
sigmas = st.sampled_from([0.0, 0.1, 0.35])
records = st.integers(0, 3_000_000)


def _with_costs(cost_model, partitions):
    """A word count costed by ``cost_model``, over ``partitions`` tasks."""
    workload = type("Costed", (WordCount,), {"COST_MODEL": cost_model})()
    workload.partitions = partitions
    return workload


def _workload(stage_list, partitions, iterations=IterationModel()):
    named = tuple(replace(s, name=f"s{i}") for i, s in enumerate(stage_list))
    return _with_costs(
        WorkloadCostModel(stages=named, iterations=iterations), partitions
    )


def _engine(workload, pool, sigma, seed=7, overhead=DEFAULT_OVERHEAD):
    engine = FastBatchEngine(
        workload, overhead, np.random.default_rng(seed), StreamingListener(),
        noise_sigma=sigma,
    )
    engine.set_profile(pool)
    return engine


@contextlib.contextmanager
def _fresh_memos(cap=None):
    """Empty process-wide memos (capped at ``cap`` if given), restored
    to empty at their usual caps on exit."""
    memos = (fast_engine._PROFILES, fast_engine._ASSIGNMENTS)
    caps = [m.cap for m in memos]
    for m in memos:
        m.entries.clear()
        if cap is not None:
            m.cap = cap
    try:
        yield
    finally:
        for m, c in zip(memos, caps):
            m.entries.clear()
            m.cap = c


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestOneBatchForm:
    @given(
        pool=executors,
        partitions=st.integers(1, 48),
        stage_list=stages,
        sigma=sigmas,
        batches=st.lists(records, min_size=1, max_size=4),
        drawn=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_block_path(
        self, pool, partitions, stage_list, sigma, batches, drawn
    ):
        """Consecutive single batches: same times and the same RNG state
        as the block path at k=1, on either side of the core count.
        ``drawn`` gives the workload a random iteration law that no
        stage reads, so the block path's iteration draw must happen."""
        iterations = IterationModel(2, 4) if drawn else IterationModel()
        workload = _workload(stage_list, partitions, iterations)
        one = _engine(workload, pool, sigma)
        block = _engine(workload, pool, sigma)
        for r in batches:
            got = one.batch_proc_times([r])
            want = block._vectorized_proc_times(
                np.asarray([r], dtype=np.int64)
            )
            assert _bits(got) == _bits(want)
        assert one.rng.bit_generator.state == block.rng.bit_generator.state

    @given(pool=executors, partitions=st.integers(1, 48), r=records)
    @settings(max_examples=40, deadline=None)
    def test_iterated_stages_take_the_block_path(self, pool, partitions, r):
        from repro.workloads.cost_models import LOGISTIC_REGRESSION_COSTS

        workload = _with_costs(LOGISTIC_REGRESSION_COSTS, partitions)
        one = _engine(workload, pool, 0.1)
        block = _engine(workload, pool, 0.1)
        assert _bits(one.batch_proc_times([r])) == _bits(
            block._vectorized_proc_times(np.asarray([r], dtype=np.int64))
        )


class TestAssignmentMemo:
    @given(
        pool=executors,
        partitions=st.integers(2, 60),
        stage_list=stages,
        sigma=sigmas,
        block=st.lists(records, min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_hit_equals_fresh_build(
        self, pool, partitions, stage_list, sigma, block
    ):
        workload = _workload(stage_list, partitions)
        with _fresh_memos():
            fresh = _engine(workload, pool, sigma)
            cold = [fresh.batch_proc_times(block), fresh.batch_proc_times(block[:1])]
            entries = dict(fast_engine._ASSIGNMENTS.entries)
            warm_engine = _engine(workload, pool, sigma)
            assert warm_engine.profile is fresh.profile
            warm = [
                warm_engine.batch_proc_times(block),
                warm_engine.batch_proc_times(block[:1]),
            ]
            # Every entry the warm engine used was a hit, not a rebuild.
            for key, entry in fast_engine._ASSIGNMENTS.entries.items():
                assert entries[key] is entry
        assert [_bits(c) for c in cold] == [_bits(w) for w in warm]

    @given(
        pool=executors,
        partitions=st.integers(2, 60),
        stage_list=stages,
        block=st.lists(records, min_size=1, max_size=6),
        first=st.sampled_from(["sigma", "dispatch"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_engines_never_share_across_sigma_or_dispatch(
        self, pool, partitions, stage_list, block, first
    ):
        """Engines differing only in noise sigma or task dispatch, run
        in one process, each cost exactly as they do alone."""
        workload = _workload(stage_list, partitions)
        variants = [
            dict(sigma=0.1),
            dict(sigma=0.35),
            dict(sigma=0.1, overhead=replace(
                DEFAULT_OVERHEAD, task_dispatch=0.02
            )),
        ]
        if first == "dispatch":
            variants.reverse()

        def costs(v):
            engine = _engine(workload, pool, **v)
            return [
                _bits(engine.batch_proc_times(block)),
                _bits(engine.batch_proc_times(block[-1:])),
            ]

        alone = []
        for v in variants:
            with _fresh_memos():
                alone.append(costs(v))
        with _fresh_memos():
            shared = [costs(v) for v in variants]
        assert shared == alone

    @given(
        pools=st.lists(executors, min_size=2, max_size=4),
        partitions=st.lists(st.integers(2, 60), min_size=1, max_size=3),
        stage_list=stages,
        sigma=sigmas,
        block=st.lists(records, min_size=1, max_size=4),
        cap=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_eviction_changes_no_result(
        self, pools, partitions, stage_list, sigma, block, cap
    ):
        """One engine cycling over pools and partition counts twice costs
        the same with memos capped at one to three entries as uncapped."""

        def run():
            out = []
            workload = _workload(stage_list, partitions[0])
            engine = _engine(workload, pools[0], sigma)
            for _ in range(2):
                for pool in pools:
                    engine.set_profile(pool)
                    for p in partitions:
                        workload.partitions = p
                        out.append(_bits(engine.batch_proc_times(block)))
                        out.append(_bits(engine.batch_proc_times(block[:1])))
            return out

        with _fresh_memos():
            uncapped = run()
        with _fresh_memos(cap):
            capped = run()
            assert len(fast_engine._ASSIGNMENTS.entries) <= cap
            assert len(fast_engine._PROFILES.entries) <= cap
        assert capped == uncapped

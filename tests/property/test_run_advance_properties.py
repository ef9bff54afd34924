"""Property tests for the fast tier's run advance.

``advance_batches(n)`` on a fast tier steps every stretch of boundaries
that nothing observes as one run: the record source closes the
stretch's batches from its prefetch block, and the coster enqueues and
drains them as arrays (``FastBatchEngine.drain_run``).  By definition a
run is that many single steps.  These properties drive two identical
deployments through the same script — one with ``advance_batches``, one
with ``advance_one_batch`` per boundary — with reconfigurations, a
boundary hook and a subscriber part-way through, and require the same
batches, the same queue ledger, the same engine timeline, the same RNG
state and the same prefetch fills, bit for bit.
"""

from dataclasses import astuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import build_experiment

#: One script step: advance some boundaries, reconfigure, crash an
#: executor, or attach / detach a boundary hook or a subscriber.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.integers(0, 40)),
        st.tuples(
            st.just("reconfigure"),
            st.sampled_from([None, 2.5, 4.0, 10.0]),
            st.sampled_from([None, 1, 2, 6]),
        ),
        st.tuples(st.just("fail")),
        st.tuples(st.just("hook")),
        st.tuples(st.just("subscribe")),
    ),
    min_size=1,
    max_size=12,
)


def _deploy(workload, seed, mode, queue_max_length, interval, executors):
    setup = build_experiment(
        workload, seed=seed, fidelity=mode, batch_interval=interval,
        num_executors=executors, queue_max_length=queue_max_length,
    )
    ctx = setup.context
    fills = []
    refill = ctx.receiver._refill

    def counted(first_boundary):
        fills.append(first_boundary)
        refill(first_boundary)

    ctx.receiver._refill = counted
    return ctx, fills


class _Watcher:
    """Sees the next ``left`` boundaries (as a hook) or batches (as a
    subscriber), noting each in ``seen``, then detaches itself."""

    def __init__(self, ctx, seen, left):
        self.ctx = ctx
        self.seen = seen
        self.left = left

    def hook(self, boundary):
        self.seen.append(boundary)
        self.left -= 1
        if not self.left:
            self.ctx.remove_boundary_hook(self.hook)

    def reader(self, info):
        self.seen.append(info.batch_index)
        self.left -= 1
        if not self.left:
            self.ctx.listener.unsubscribe(self.reader)


def _state(ctx, fills):
    queue = ctx.queue
    engine = ctx.engine
    evicted = queue.last_evicted

    def fields(qb):
        return (
            qb.batch_time, qb.records, qb.mean_arrival_time, qb.interval,
            qb.batch_index, qb.cost, qb.cost_records,
        )

    return {
        "batches": [astuple(b) for b in ctx.listener.metrics.batches],
        "ledger": (
            queue.total_enqueued, queue.total_dequeued, queue.total_dropped,
            queue.total_dropped_records, queue.peak_length,
        ),
        "waiting": [fields(qb) for qb in queue],
        "last_evicted": None if evicted is None else fields(evicted),
        "engine": (
            engine.free_at, engine.jobs_run, engine.startup_pending,
            engine.total_pause_injected,
        ),
        "time": ctx.time,
        "rng": ctx.rng.bit_generator.state,
        "fills": list(fills),
        "block": (ctx.receiver._pos, ctx.receiver._size),
    }


class TestRunAdvance:
    @given(
        workload=st.sampled_from(
            ["wordcount", "logistic_regression", "windowed_wordcount"]
        ),
        mode=st.sampled_from(["vectorized", "vectorized", "fluid"]),
        queue_max_length=st.sampled_from([None, 1, 3, 25]),
        interval=st.sampled_from([1.0, 2.0, 10.0]),
        executors=st.sampled_from([1, 2, 10]),
        seed=st.integers(0, 50),
        steps=_steps,
    )
    @settings(max_examples=60, deadline=None)
    def test_runs_equal_single_steps(
        self, workload, mode, queue_max_length, interval, executors, seed,
        steps,
    ):
        ctxs = [
            _deploy(workload, seed, mode, queue_max_length, interval, executors)
            for _ in range(2)
        ]
        completed = [[], []]
        seen = [[], []]
        for step in steps:
            for side, (ctx, _) in enumerate(ctxs):
                kind = step[0]
                if kind == "advance":
                    if side == 0:
                        completed[0] += ctx.advance_batches(step[1])
                    else:
                        for _ in range(step[1]):
                            completed[1] += ctx.advance_one_batch()
                elif kind == "reconfigure":
                    ctx.change_configuration(
                        batch_interval=step[1], num_executors=step[2]
                    )
                elif kind == "fail":
                    if ctx.num_executors > 1:
                        ctx.inject_executor_failure()
                elif kind == "hook":
                    ctx.add_boundary_hook(_Watcher(ctx, seen[side], 3).hook)
                else:
                    ctx.listener.subscribe(_Watcher(ctx, seen[side], 2).reader)
        assert [astuple(b) for b in completed[0]] == [
            astuple(b) for b in completed[1]
        ]
        assert seen[0] == seen[1]
        assert _state(*ctxs[0]) == _state(*ctxs[1])

    @given(
        queue_max_length=st.sampled_from([None, 1, 2, 3]),
        seed=st.integers(0, 50),
        chunks=st.lists(st.integers(1, 300), min_size=1, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_overloaded_queue_evicts_alike(self, queue_max_length, seed, chunks):
        """Far past saturation (one executor, 1 s batches): after the
        first 40 boundaries the queue is full and a bounded one evicts on
        most boundaries, inside runs that span whole prefetch blocks."""
        ctxs = [
            _deploy(
                "logistic_regression", seed, "vectorized", queue_max_length,
                1.0, 1,
            )
            for _ in range(2)
        ]
        for n in [40, *chunks]:
            ctxs[0][0].advance_batches(n)
            for _ in range(n):
                ctxs[1][0].advance_one_batch()
        run, single = (_state(*c) for c in ctxs)
        assert run == single
        if queue_max_length is not None:
            assert run["ledger"][2] > 0

    @given(
        seed=st.integers(0, 50),
        change=st.sampled_from([
            {"num_executors": 6},
            {"batch_interval": 1.5},
            {"executor_cores": 2},
        ]),
        n=st.integers(1, 80),
    )
    @settings(max_examples=30, deadline=None)
    def test_first_batch_after_a_change_inside_a_run(self, seed, change, n):
        """A change made while the engine is busy, with room for one
        waiting batch: the next boundaries evict the waiting batches, so
        the first batch to start after the change — the one flagged
        ``first_after_reconfig``, and the one that pays a relaunched
        pool's startup — is one the run formed itself."""
        ctxs = [
            _deploy("logistic_regression", seed, "vectorized", 1, 1.0, 1)
            for _ in range(2)
        ]
        for ctx, _ in ctxs:
            ctx.advance_batches(40)
            ctx.change_configuration(**change)
        ctxs[0][0].advance_batches(n)
        for _ in range(n):
            ctxs[1][0].advance_one_batch()
        run, single = (_state(*c) for c in ctxs)
        assert run == single

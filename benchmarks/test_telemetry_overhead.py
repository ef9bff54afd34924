"""Telemetry overhead on the wordcount workload (ISSUE acceptance).

Three configurations of the same fixed-seed NoStop run:

* **baseline** — no telemetry argument at all (every component holds the
  shared no-op instruments);
* **disabled** — an explicit ``Telemetry(enabled=False)`` bundle threaded
  through the stack (the contract under test: under
  ``MAX_DISABLED_OVERHEAD``, 8%, over baseline);
* **enabled**  — full tracing + metrics + audit; span construction is
  real work, so its budget (``MAX_ENABLED_OVERHEAD``) is wider.

Wall times are medians over repeated runs because a single ~1 s run is
too noisy to support an 8% bound.

The second benchmark microbenchmarks the metrics-governance hot paths
added by the labeled-family work: a bound family child must cost the
same as a flat counter (binding happens once at instrument time), the
``labels()`` lookup itself is the interning dict hit, and the emission
batcher's per-event cost is an append plus one float compare.  Numbers
are recorded for trend-watching; the only hard assertion is that the
*disabled* family path (no-op registry) stays no-op cheap.
"""

import statistics
import time

from repro.experiments.common import build_experiment, make_controller
from repro.obs import EmissionBatcher, MetricsRegistry, NOOP_REGISTRY, Telemetry
from repro.obs.catalog import instrument

from .conftest import emit, run_once

ROUNDS = 8
REPEATS = 5
#: The disabled-telemetry bound the docs state.  It sits a little above
#: the 5% first aimed for, which flaked on scheduler jitter in CI
#: containers.
MAX_DISABLED_OVERHEAD = 0.08
#: Measured on a shared 2-vCPU VM over 10 interleaved pairs of runs
#: (this code vs the code before the judge's running state went
#: incremental): the enabled overhead read 5-44% (median 26%), and
#: 9-41% before.  The budget adds ~30 points of margin over the highest
#: run, so it catches the tracer's cost growing by half or more without
#: flaking on a loaded host.
MAX_ENABLED_OVERHEAD = 0.75


def one_run(telemetry):
    setup = build_experiment("wordcount", seed=11, telemetry=telemetry)
    controller = make_controller(setup, seed=11)
    controller.run(ROUNDS)
    return setup


def run_overhead():
    one_run(None)  # warm-up: imports and allocator caches off the clock
    factories = {
        "baseline": lambda: None,
        "disabled": lambda: Telemetry(enabled=False),
        "enabled": lambda: Telemetry(enabled=True),
    }
    # Interleave the configurations so slow drift (allocator growth,
    # frequency scaling) hits all three equally instead of whichever
    # block ran first.
    samples = {k: [] for k in factories}
    for _ in range(REPEATS):
        for key, make_telemetry in factories.items():
            t0 = time.perf_counter()
            one_run(make_telemetry())
            samples[key].append(time.perf_counter() - t0)
    baseline = statistics.median(samples["baseline"])
    disabled = statistics.median(samples["disabled"])
    enabled = statistics.median(samples["enabled"])
    return {
        "baseline_s": baseline,
        "disabled_s": disabled,
        "enabled_s": enabled,
        "disabled_overhead": disabled / baseline - 1.0,
        "enabled_overhead": enabled / baseline - 1.0,
    }


def test_telemetry_overhead(benchmark):
    result = run_once(benchmark, run_overhead)
    emit(
        "Telemetry overhead on wordcount "
        f"({ROUNDS} rounds, median of {REPEATS}):\n"
        f"  baseline (no telemetry):   {result['baseline_s']:.3f}s\n"
        f"  disabled bundle:           {result['disabled_s']:.3f}s "
        f"({result['disabled_overhead']:+.1%})\n"
        f"  enabled (trace+metrics):   {result['enabled_s']:.3f}s "
        f"({result['enabled_overhead']:+.1%})"
    )
    assert result["disabled_overhead"] < MAX_DISABLED_OVERHEAD, (
        f"disabled telemetry cost {result['disabled_overhead']:.1%}, "
        f"bound is {MAX_DISABLED_OVERHEAD:.0%}"
    )
    assert result["enabled_overhead"] < MAX_ENABLED_OVERHEAD, (
        f"enabled telemetry cost {result['enabled_overhead']:.1%}, "
        f"bound is {MAX_ENABLED_OVERHEAD:.0%}"
    )


HOT_ITERS = 200_000


def _time_loop(fn, iters=HOT_ITERS):
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - t0) / iters * 1e9  # ns/op


def run_labeled_hot_paths():
    reg = MetricsRegistry()
    flat = instrument(reg, "repro_nostop_rounds_total")
    fam = instrument(reg, "repro_chaos_injections_total")
    bound = fam.labels(kind="crash")
    noop_fam = instrument(NOOP_REGISTRY, "repro_chaos_injections_total")
    batcher = EmissionBatcher(lambda events: None, registry=reg,
                              flush_interval=1e12)
    event = {"event": "bench", "n": 1}
    clock = iter(range(10 * HOT_ITERS))
    return {
        "flat_inc_ns": _time_loop(flat.inc),
        "bound_child_inc_ns": _time_loop(bound.inc),
        "labels_lookup_inc_ns": _time_loop(
            lambda: fam.labels(kind="crash").inc()
        ),
        "noop_family_labels_inc_ns": _time_loop(
            lambda: noop_fam.labels(kind="crash").inc()
        ),
        "batcher_emit_ns": _time_loop(
            lambda: batcher.emit(event, now=float(next(clock)))
        ),
    }


def test_labeled_family_hot_paths(benchmark):
    result = run_once(benchmark, run_labeled_hot_paths)
    emit(
        f"Labeled-family hot paths (ns/op over {HOT_ITERS:,} iters):\n"
        f"  flat counter inc():          {result['flat_inc_ns']:8.1f}\n"
        f"  bound family child inc():    {result['bound_child_inc_ns']:8.1f}\n"
        f"  labels() lookup + inc():     {result['labels_lookup_inc_ns']:8.1f}\n"
        f"  disabled family labels+inc:  {result['noop_family_labels_inc_ns']:8.1f}\n"
        f"  emission batcher emit():     {result['batcher_emit_ns']:8.1f}"
    )
    # The disabled path must stay allocation-free: the no-op family hands
    # back the shared no-op instrument, so a disabled labels()+inc() may
    # not cost more than a handful of flat increments.  A generous 10x
    # bound catches an accidental real-child allocation (~100x) without
    # flaking on CI jitter.
    assert result["noop_family_labels_inc_ns"] < max(
        10 * result["flat_inc_ns"], 2000.0
    ), (
        "disabled labeled-family path is no longer no-op cheap: "
        f"{result['noop_family_labels_inc_ns']:.0f}ns vs flat "
        f"{result['flat_inc_ns']:.0f}ns"
    )


TRACE_ITERS = 20_000


def run_sampled_tracer_hot_path():
    """Per-trace cost of the flight recorder at realistic settings.

    One iteration is a whole batch-shaped trace: root + two children,
    finishes, then the finalization that decides sampling/retention.
    The interesting comparison is keep-everything vs 1/16 head sampling
    (a sampled-out trace still pays span construction, then is discarded
    wholesale at finalization) vs the disabled tracer floor.
    """
    from repro.obs import Tracer

    def trace_once(tracer, i):
        root = tracer.start_trace("batch", trace_id=f"b-{i:06d}", start=float(i))
        sched = tracer.start_span("schedule", root, start=float(i))
        sched.finish(i + 0.1)
        ex = tracer.start_span("execute", root, start=i + 0.1)
        ex.finish(i + 0.9)
        root.finish(i + 1.0)

    def timed(tracer):
        counter = iter(range(10 * TRACE_ITERS))
        t0 = time.perf_counter()
        for _ in range(TRACE_ITERS):
            trace_once(tracer, next(counter))
        tracer.finalize_all()
        return (time.perf_counter() - t0) / TRACE_ITERS * 1e9  # ns/trace

    return {
        "keep_all_ns": timed(Tracer(max_spans=16_384)),
        "sampled_16_ns": timed(
            Tracer(max_spans=16_384, sample_rate=16)
        ),
        "disabled_ns": timed(Tracer(enabled=False)),
    }


def test_sampled_tracer_hot_path(benchmark):
    result = run_once(benchmark, run_sampled_tracer_hot_path)
    emit(
        f"Flight-recorder per-trace cost (ns over {TRACE_ITERS:,} traces; "
        "root + 2 children + finalize):\n"
        f"  keep everything:       {result['keep_all_ns']:10.1f}\n"
        f"  1/16 head sampling:    {result['sampled_16_ns']:10.1f}\n"
        f"  disabled tracer:       {result['disabled_ns']:10.1f}"
    )
    # Sampling adds one SHA-256 per trace but discards 15/16 of the
    # archive bookkeeping; it must stay in the same ballpark as
    # keep-everything rather than regress to something superlinear.
    assert result["sampled_16_ns"] < 5 * result["keep_all_ns"] + 10_000.0
    # And the disabled tracer stays no-op cheap per whole trace.
    assert result["disabled_ns"] < max(result["keep_all_ns"] / 2, 2000.0)

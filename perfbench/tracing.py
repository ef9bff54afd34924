"""Outside-in span recorder for the benchmark's traced run.

The traced run wraps public entry points of each ``src/repro`` layer from
here, outside the package, and records one span per call: layer, entry
point, start, end and the span that was open when it began (its
parent).  Spans stay in memory while the workload runs and are written
out when it ends.  A layer's self time is the summed duration of its
spans minus the part covered by their child spans; host time outside
every span is reported as unattributed, so

    sum(layer self time) + unattributed == traced wall time

holds exactly.  Wrappers only observe: they pass arguments and results
through unchanged, so a traced run simulates exactly what an untraced
run does (the benchmark checks this by digest).

Counters ride on the same boundaries: a wrapper may run a *hook* on the
call's arguments and result to tally work (records produced, tasks
built) or to keep the instance so its public counters can be read when
the operation ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer names, in report order; each is a package under ``src/repro``.
LAYERS = (
    "datagen",
    "kafka",
    "streaming",
    "workloads",
    "engine",
    "fast",
    "core",
    "tuners",
    "cluster",
    "obs",
    "chaos",
    "runner",
)

Hook = Callable[["SpanRecorder", tuple, Any], None]


class SpanRecorder:
    """In-memory span store plus per-boundary counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.layers: List[str] = []
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        #: Tallies and maxima recorded by hooks, by quantity name.
        self.tallies: Dict[str, float] = {}
        #: Instances seen at an entry point, by id (read after the run).
        self.kept: Dict[int, Any] = {}

    def open(self, layer: str, name: str) -> int:
        index = len(self.starts)
        self.layers.append(layer)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self._clock()
        self._stack.pop()

    def add(self, quantity: str, amount: float) -> None:
        self.tallies[quantity] = self.tallies.get(quantity, 0) + amount

    def maximum(self, quantity: str, value: float) -> None:
        if value > self.tallies.get(quantity, float("-inf")):
            self.tallies[quantity] = value

    def keep(self, obj: Any) -> None:
        self.kept[id(obj)] = obj

    def __len__(self) -> int:
        return len(self.starts)

    def calls(self, name: str) -> int:
        """Number of spans recorded for one entry point."""
        return sum(1 for n in self.names if n == name)

    def self_times(self) -> Tuple[Dict[str, float], float]:
        """Per-layer self seconds, and the summed top-level span time."""
        child = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        by_layer = {layer: 0.0 for layer in LAYERS}
        top = 0.0
        for i, layer in enumerate(self.layers):
            duration = self.ends[i] - self.starts[i]
            by_layer[layer] += duration - child[i]
            if self.parents[i] < 0:
                top += duration
        return by_layer, top

    def write(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.starts)):
                fh.write(json.dumps({
                    "id": i,
                    "parent": self.parents[i],
                    "layer": self.layers[i],
                    "name": self.names[i],
                    "start": self.starts[i] - t0,
                    "end": self.ends[i] - t0,
                }) + "\n")


# -- hooks --------------------------------------------------------------------


def _keep_self(rec: SpanRecorder, args: tuple, result: Any) -> None:
    rec.keep(args[0])


def _tally_result(quantity: str) -> Hook:
    def hook(rec: SpanRecorder, args: tuple, result: Any) -> None:
        rec.add(quantity, result)

    return hook


def _tally_len(quantity: str) -> Hook:
    def hook(rec: SpanRecorder, args: tuple, result: Any) -> None:
        rec.add(quantity, len(result))

    return hook


def _kafka_poll(rec: SpanRecorder, args: tuple, result: Any) -> None:
    # Lag just before this poll: what it consumed plus what it left.
    rec.maximum("kafka.max_lag_records", result.total_records + args[0].lag())


def _job_built(rec: SpanRecorder, args: tuple, result: Any) -> None:
    rec.add("workloads.tasks", result.num_tasks)


def _job_run(rec: SpanRecorder, args: tuple, result: Any) -> None:
    rec.add(
        "engine.tasks",
        sum(sr.num_tasks * sr.iterations for sr in result.stage_runs),
    )
    rec.add("engine.task_failures", result.task_failures)


def _adjusted(rec: SpanRecorder, args: tuple, result: Any) -> None:
    m = result.measurement
    rec.add("core.discarded", m.skipped + m.outliers_rejected)
    rec.add("core.measured", m.batches_used + m.skipped + m.outliers_rejected)


def _span_made(noop: Any) -> Hook:
    def hook(rec: SpanRecorder, args: tuple, result: Any) -> None:
        rec.keep(args[0])
        if result is not noop:
            rec.add("obs.spans", 1)

    return hook


# -- entry points -------------------------------------------------------------


def _tuner_classes() -> List[type]:
    from repro.tuners import make_tuner, tournament_space, tuner_names

    space = tournament_space()
    return [type(make_tuner(name, space)) for name in tuner_names()]


def entry_points() -> List[Tuple[str, Any, str, Optional[Hook]]]:
    """(layer, class or module, attribute, hook) for every traced call."""
    from repro.chaos.engine import ChaosEngine
    from repro.cluster.resource_manager import ResourceManager
    from repro.core.adjust import AdjustFunction
    from repro.core.nostop import NoStopController
    from repro.datagen.generator import DataGenerator
    from repro.engine.task_scheduler import TaskScheduler
    from repro.fast.context import FastStreamingContext
    from repro.fast.engine import FastBatchEngine
    from repro.kafka.consumer import DirectStreamConsumer
    from repro.obs import report as obs_report
    from repro.obs.span import NOOP_SPAN
    from repro.obs.tracer import Tracer
    from repro.runner import cells as runner_cells
    from repro.runner.cache import ResultCache
    from repro.streaming.context import StreamingContext
    from repro.streaming.listener import StreamingListener
    from repro.streaming.receiver import Receiver
    from repro.streaming.simulator import MicroBatchEngine
    from repro.workloads.base import Workload

    points: List[Tuple[str, Any, str, Optional[Hook]]] = [
        ("datagen", DataGenerator, "advance_to",
         _tally_result("datagen.records")),
        ("kafka", DirectStreamConsumer, "poll", _kafka_poll),
        ("kafka", DirectStreamConsumer, "mean_arrival_time", None),
        ("streaming", StreamingContext, "advance_one_batch", _keep_self),
        ("streaming", Receiver, "close_batch", None),
        ("streaming", MicroBatchEngine, "drain", None),
        ("streaming", StreamingListener, "on_batch_completed", None),
        ("workloads", Workload, "build_job", _job_built),
        ("engine", TaskScheduler, "run_job", _job_run),
        ("fast", FastStreamingContext, "advance_one_batch",
         _tally_len("fast.batches")),
        ("fast", FastBatchEngine, "batch_proc_times", None),
        ("core", AdjustFunction, "__call__", _adjusted),
        ("core", NoStopController, "run_round", None),
        ("cluster", ResourceManager, "scale_to", _keep_self),
        ("cluster", ResourceManager, "resize_cores", _keep_self),
        ("cluster", ResourceManager, "fail_executor", _keep_self),
        ("obs", Tracer, "start_trace", _span_made(NOOP_SPAN)),
        ("obs", Tracer, "start_span", _span_made(NOOP_SPAN)),
        ("obs", Tracer, "finish_span", None),
        ("obs", obs_report.RunJudge, "observe_batch", None),
        ("obs", obs_report, "build_run_report", None),
        ("obs", obs_report.RunReport, "render_text", None),
        ("obs", obs_report.RunReport, "render_html", None),
        ("obs", obs_report.RunReport, "to_json", None),
        ("chaos", ChaosEngine, "on_boundary", _keep_self),
        ("runner", ResultCache, "get", None),
        ("runner", ResultCache, "put", None),
        ("runner", runner_cells, "execute_cell", None),
    ]
    defined = set()
    for cls in _tuner_classes():
        for attr in ("ask", "observe"):
            owner = next(k for k in cls.__mro__ if attr in vars(k))
            if (owner, attr) not in defined:
                defined.add((owner, attr))
                points.append(("tuners", owner, attr, None))
    return points


def _wrap(fn: Callable, layer: str, name: str, rec: SpanRecorder,
          hook: Optional[Hook]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, args, result)
        return result

    return traced


@contextmanager
def traced(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every entry-point wrapper for the duration of the block.

    Class attributes are replaced on the class that defines them.  A
    module-level function is replaced in every loaded ``repro`` module
    that bound it by name (``from .cells import execute_cell``).
    """
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for layer, owner, attr, hook in entry_points():
            original = getattr(owner, attr)
            name = f"{owner.__name__}.{attr}"
            wrapped = _wrap(original, layer, name, rec, hook)
            if isinstance(owner, type):
                targets = [owner]
            else:
                targets = [
                    mod for key, mod in list(sys.modules.items())
                    if key.startswith("repro")
                    and getattr(mod, attr, None) is original
                ]
            for target in targets:
                undo.append((target, attr, original))
                setattr(target, attr, wrapped)
        yield rec
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """Per-layer ``calls``, ``self_s`` and quantities for one traced op."""
    from repro.chaos.engine import ChaosEngine
    from repro.cluster.resource_manager import ResourceManager
    from repro.obs.tracer import Tracer
    from repro.streaming.context import StreamingContext

    self_s, _top = rec.self_times()
    calls = {layer: 0 for layer in LAYERS}
    for layer in rec.layers:
        calls[layer] += 1
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]

    kept = list(rec.kept.values())
    contexts = [o for o in kept if isinstance(o, StreamingContext)]
    tracers = [o for o in kept if isinstance(o, Tracer)]
    t = rec.tallies
    enqueued = sum(c.queue.total_enqueued for c in contexts)
    retained = sum(tr.retained_traces for tr in tracers)
    evicted = sum(tr.evicted_traces for tr in tracers)
    out.update({
        "datagen.records": t.get("datagen.records", 0),
        "kafka.max_lag_records": t.get("kafka.max_lag_records", 0),
        "streaming.batches": rec.calls("StreamingListener.on_batch_completed"),
        "streaming.dropped_frac": _ratio(
            sum(c.queue.total_dropped for c in contexts), enqueued
        ),
        "streaming.peak_queue": max(
            (c.queue.peak_length for c in contexts), default=0
        ),
        "workloads.tasks": t.get("workloads.tasks", 0),
        "engine.tasks": t.get("engine.tasks", 0),
        "engine.task_retry_frac": _ratio(
            t.get("engine.task_failures", 0), t.get("engine.tasks", 0)
        ),
        "fast.batches_per_cost_call": _ratio(
            t.get("fast.batches", 0),
            rec.calls("FastBatchEngine.batch_proc_times"),
        ),
        "core.adjust_calls": rec.calls("AdjustFunction.__call__"),
        "core.discarded_frac": _ratio(
            t.get("core.discarded", 0), t.get("core.measured", 0)
        ),
        "tuners.evals": sum(
            1 for layer, name in zip(rec.layers, rec.names)
            if layer == "tuners" and name.endswith(".observe")
        ),
        "cluster.reconfigurations": sum(
            o.reconfigurations for o in kept
            if isinstance(o, ResourceManager)
        ),
        "obs.spans": t.get("obs.spans", 0),
        "obs.retained_frac": _ratio(retained, retained + evicted),
        "chaos.faults": sum(
            o.injections for o in kept if isinstance(o, ChaosEngine)
        ),
        "runner.cells": rec.calls("repro.runner.cells.execute_cell"),
    })
    return out

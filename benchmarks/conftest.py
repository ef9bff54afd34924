"""Benchmark-harness helpers.

Every benchmark regenerates one paper table/figure and prints the same
rows/series the paper reports (the reproduction contract is the *shape*,
not absolute numbers — see DESIGN.md §4 and EXPERIMENTS.md).

``run_once`` wraps an experiment function in pytest-benchmark's pedantic
mode with a single round: these are system-level experiments, not
micro-benchmarks, and one execution per figure keeps the suite's runtime
sane while still reporting wall time per figure.

``bench_record`` persists each benchmark's headline numbers (end-to-end
delay p50/p95/p99, objective, wall runtime) to ``BENCH_<suite>.json`` in
the working directory at session end — one file per benchmark module, so
CI can archive the suite's results without scraping stdout.  The file is
merged, not rewritten: hand-written before/after records survive a run.
"""

import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

#: suite name -> test name -> recorded payload, flushed at session end.
_BENCH_RECORDS = defaultdict(dict)


def run_once(benchmark, fn, *args, **kwargs):
    """Execute ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit(text: str) -> None:
    """Print a result block so it survives pytest's capture with -s."""
    sys.stdout.write("\n" + text + "\n")


@pytest.fixture
def bench_record(request):
    """Record this benchmark's summary for ``BENCH_<suite>.json``.

    Call the yielded function once with the run's signals::

        bench_record(metrics=listener.metrics, objective=report.best.objective)

    ``metrics`` (a :class:`~repro.streaming.metrics.StreamingMetrics`)
    contributes the delay p50/p95/p99 and batch count; ``objective`` the
    final objective value; ``workers`` the sweep fan-out width (defaults
    to 1 — every benchmark is assumed sequential unless it says
    otherwise); any extra keyword lands in the payload verbatim.  Wall
    runtime of the whole test and the machine's CPU count are stamped
    automatically so recorded speedups can be read in context.
    """
    suite = request.module.__name__.rpartition(".")[-1]
    if suite.startswith("test_"):
        suite = suite[len("test_"):]
    payload = {"workers": 1}

    def record(metrics=None, objective=None, workers=None, **extra):
        if metrics is not None and metrics.batches:
            p50, p95, p99 = metrics.delay_percentiles((0.50, 0.95, 0.99))
            payload.update({
                "delayP50": p50,
                "delayP95": p95,
                "delayP99": p99,
                "batches": len(metrics.batches),
            })
        if objective is not None:
            payload["objective"] = float(objective)
        if workers is not None:
            payload["workers"] = int(workers)
        payload.update(extra)

    start = time.perf_counter()
    yield record
    payload["runtimeSeconds"] = round(time.perf_counter() - start, 3)
    payload["wallSeconds"] = payload["runtimeSeconds"]
    payload["cpuCount"] = os.cpu_count() or 1
    _BENCH_RECORDS[suite][request.node.name] = payload


def write_bench_records(records, directory=".") -> None:
    """Merge ``{suite: {test: payload}}`` into ``BENCH_<suite>.json``.

    Each payload's fields replace those of the test's entry; every other
    key in the file — other tests, hand-written fields of an entry, and
    top-level records such as ``history`` — is kept.
    """
    for suite, tests in sorted(records.items()):
        path = Path(directory) / f"BENCH_{suite}.json"
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            data = {}
        data["suite"] = suite
        entries = data.setdefault("tests", {})
        for name, payload in tests.items():
            entries.setdefault(name, {}).update(payload)
        path.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def pytest_sessionfinish(session, exitstatus):
    write_bench_records(_BENCH_RECORDS)

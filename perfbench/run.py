"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact_steady --seed 1 --seconds 10 --trace 0

Run from anywhere; the repository root is found from this file.  The
run is single-process (sweep workers = 1, BLAS threads pinned to 1) and
deterministic in what it simulates: ``--seed`` picks the inputs.

``--trace 0`` measures the end-to-end metrics with no tracing.  Set-up
is timed in fresh interpreters first (median of several).  One
untimed warm-up operation follows, then operations cycle over the run's
inputs until ``--seconds`` have passed and every input ran at least
once.  Each operation is timed alone, from a freshly collected heap;
its correctness checks run after the clock stops.

Shared VMs slow down by 1.2-2x for seconds at a time, which moved raw
host times 40-50% between runs.  So every timed interval (an operation,
a set-up) is bracketed by a fixed calibration loop, and its host
seconds are scaled by reference-loop time over measured-loop time: the
time the interval would take at the reference speed.  Over six seeds
this cut the run-to-run spread of the per-batch cost from 51% to 9%.

``--trace 1`` runs each input untraced and then traced, and reports the
per-layer metrics of :mod:`perfbench.tracing` (means over the traced
operations) plus the tracing overhead.  The spans of the last traced
operation are written to ``.perfbench/spans-<workload>.jsonl``.

An operation fails when it raises, when a correctness check fails, or
when its output digest differs from the first run of the same input.
One ``digest`` line per input precedes the result; the last line of
standard output is the JSON result.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

#: Fresh-interpreter set-ups per run; the median is reported.
SETUP_REPEATS = 9

#: Host seconds are reported at the CPU speed at which one call of
#: :func:`_calibration_work` takes this long (its fastest time on the
#: 2-vCPU VM the benchmark was tuned on).
CAL_REFERENCE_S = 0.0067
#: Calibration calls per measurement; the median is used.
CAL_SAMPLES = 7

#: Per-layer quantities aggregated by maximum rather than mean.
MAXIMA = ("kafka.max_lag_records", "streaming.peak_queue")

_ENV_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
#: Variables that would switch telemetry on behind the workload's back.
_ENV_DROP = ("REPRO_TRACE", "REPRO_FORCE_TRACE")


def pin_environment(env) -> None:
    env.update(_ENV_PINS)
    for var in _ENV_DROP:
        env.pop(var, None)


def _calibration_work() -> float:
    """A fixed slice of interpreter work: dict stores and float arithmetic."""
    table = {}
    x = 0.0
    for i in range(60000):
        table[i & 1023] = x
        x += i * 0.5
    return x


def calibration_seconds() -> float:
    samples = []
    for _ in range(CAL_SAMPLES):
        t0 = time.perf_counter()
        _calibration_work()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def calibrated(fn):
    """``fn()`` and the factor scaling host seconds spent in it to the
    reference speed, from calibration runs just before and after."""
    before = calibration_seconds()
    result = fn()
    after = calibration_seconds()
    return result, 2.0 * CAL_REFERENCE_S / (before + after)


def _probe_seconds(workload: str, seed: int, env) -> float:
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(PROBE), workload, str(seed)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(
            f"set-up probe exited {proc.returncode} before its first batch"
        )
    return elapsed


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from spawning an interpreter to its first batch."""
    env = dict(os.environ)
    pin_environment(env)
    env["PYTHONPATH"] = str(ROOT / "src")
    samples = []
    for _ in range(SETUP_REPEATS):
        elapsed, scale = calibrated(lambda: _probe_seconds(workload, seed, env))
        samples.append(elapsed * scale)
    return statistics.median(samples)


class Session:
    """Runs operations of one workload and keeps the failure tally."""

    def __init__(self, workload, scratch: Path) -> None:
        self.workload = workload
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        #: First outcome per input: the digest later runs must match.
        self.reference: Dict[int, object] = {}

    def op(self, seed: int, recorder=None) -> Optional[Tuple[float, object]]:
        """One operation; ``(wall seconds, outcome)`` or None if it failed."""
        from perfbench import tracing

        self.attempted += 1
        # Start from a clean heap: the previous operation's cyclic garbage
        # would otherwise be collected (and counted) inside this one.
        gc.collect()
        try:
            if recorder is None:
                t0 = time.perf_counter()
                state = self.workload.run(seed, self.scratch)
                wall = time.perf_counter() - t0
            else:
                with tracing.traced(recorder):
                    t0 = time.perf_counter()
                    state = self.workload.run(seed, self.scratch)
                    wall = time.perf_counter() - t0
            outcome = self.workload.judge(state)
        except Exception:  # noqa: BLE001 - a failed operation is counted
            traceback.print_exc()
            self.failed += 1
            return None
        reference = self.reference.setdefault(seed, outcome)
        problems = list(outcome.problems)
        if outcome.digest != reference.digest:
            problems.append(
                f"digest {outcome.digest} differs from the first run of "
                f"input {seed} ({reference.digest})"
            )
        if problems:
            for problem in problems:
                print(f"input {seed}: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        return wall, outcome

    def tune_mean(self, key: str) -> float:
        return statistics.fmean(o.tune[key] for o in self.reference.values())


def _cycle(seeds: List[int], seconds: float):
    """Inputs in turn until ``seconds`` pass and each was yielded once."""
    start = time.perf_counter()
    i = 0
    while i < len(seeds) or time.perf_counter() - start < seconds:
        yield seeds[i % len(seeds)]
        i += 1


def end_to_end(session: Session, seeds: List[int], seconds: float,
               workload: str, seed: int) -> Dict[str, float]:
    setup_s = measure_setup(workload, seed)
    session.op(seeds[0])  # warm-up: lazy imports and first-use costs
    per_batch: List[float] = []
    for s in _cycle(seeds, seconds):
        done, scale = calibrated(lambda: session.op(s))
        if done is not None:
            wall, outcome = done
            per_batch.append(wall * scale / outcome.batches)
    # Inputs differ in size and the loop samples some more often than
    # others, so an operation's time is the median per-batch cost times
    # the mean batches per input.
    seconds_per_batch = statistics.median(per_batch)
    return {
        "setup_s": setup_s,
        "wall_s": seconds_per_batch * statistics.fmean(
            o.batches for o in session.reference.values()
        ),
        "us_per_batch": seconds_per_batch * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tune_best_delay_s": session.tune_mean("best_delay_s"),
        "tune_convergence_batches": session.tune_mean("convergence_batches"),
    }


def per_layer(session: Session, seeds: List[int], seconds: float,
              spans_out: Path) -> Dict[str, float]:
    from perfbench import tracing

    session.op(seeds[0])  # warm-up, as in the untraced run
    plain_wall = traced_wall = 0.0
    rows: List[Dict[str, float]] = []
    recorder = None
    for s in _cycle(seeds, seconds):
        plain = session.op(s)
        rec = tracing.SpanRecorder()
        traced = session.op(s, rec)
        if plain is None or traced is None:
            continue
        recorder = rec
        plain_wall += plain[0]
        traced_wall += traced[0]
        row = tracing.layer_metrics(rec)
        # Release the kept instances (whole simulations) before the next
        # untraced operation, whose garbage collection they would slow.
        rec.kept.clear()
        _self, top = rec.self_times()
        row["bench.traced_wall_s"] = traced[0]
        row["bench.unattributed_s"] = traced[0] - top
        rows.append(row)
    if recorder is None:
        raise RuntimeError("no traced operation succeeded")
    recorder.write(spans_out)
    out = {
        key: (max if key in MAXIMA else statistics.fmean)(r[key] for r in rows)
        for key in rows[0]
    }
    out["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    out["tune.slo_violation_s"] = session.tune_mean("slo_violation_s")
    out["tune.reconfig_s"] = session.tune_mean("reconfig_s")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pin_environment(os.environ)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, input_seeds

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    scratch = out_dir / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    session = Session(workload, scratch)
    seeds = input_seeds(args.seed)
    try:
        if args.trace:
            values = per_layer(session, seeds, args.seconds,
                               out_dir / f"spans-{workload.name}.jsonl")
            values["bench.failed_frac"] = session.failed / session.attempted
            declared = spec["per_layer"]
        else:
            values = end_to_end(session, seeds, args.seconds,
                                workload.name, args.seed)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
            "disagree with BENCHMARK.json"
        )
    for s in seeds:
        if s in session.reference:
            print(f"digest {workload.name} input={s} "
                  f"sha256={session.reference[s].digest}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

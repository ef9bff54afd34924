"""Command-line interface: ``python -m repro <command>``.

Every command is one entry of :data:`COMMANDS`, declared with
:func:`_command` on the function that runs it: its name, its help and
its arguments.  ``repro --help`` lists the commands and ``repro
<command> --help`` their options.  Options that several commands share
are declared once below, and each paper figure once in :data:`FIGURES`,
which ``figure`` and ``sweep`` both dispatch through.

A command imports its subsystem when it runs, and argument choices are
read when argparse first needs them, so importing this module or
building the parser loads no simulation code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence


def _arg(*flags: str, **kwargs) -> tuple:
    """One ``add_argument`` call of a command entry."""
    return flags, kwargs


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argument type: an integer ``>= low``.  The callees reject
    smaller counts, so they are usage errors (exit 2), not tracebacks."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return value

    return integer


_COUNT = _int_at_least(1)


def _positive(text: str) -> float:
    """An argument type: a float ``> 0``, for the durations and factors
    the callees reject at zero or below."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


class _Choices:
    """The values of ``module.attr``, read when argparse first checks or
    shows a choice, so that building the parser imports no subsystem."""

    def __init__(self, module: str, attr: str, order=tuple) -> None:
        self.module, self.attr, self.order = module, attr, order

    def __iter__(self):
        return iter(self.order(getattr(import_module(self.module), self.attr)))


def _workload(default: Optional[str] = "wordcount", **kwargs) -> tuple:
    return _arg("--workload", default=default,
                choices=_Choices("repro.workloads", "WORKLOADS", sorted),
                **kwargs)


def _seed(default: Optional[int], **kwargs) -> tuple:
    return _arg("--seed", type=int, default=default, **kwargs)


def _rounds(default: int, **kwargs) -> tuple:
    return _arg("--rounds", type=_COUNT, default=default, **kwargs)


def _repeats(default: int, help: str) -> tuple:
    return _arg("--repeats", type=_COUNT, default=default, help=help)


def _fidelity(default: str, help: str) -> tuple:
    return _arg("--fidelity", default=default,
                choices=_Choices("repro.fast", "FIDELITIES"), help=help)


# The runner flags of ``sweep`` and ``tournament``, read by _runner.
_WORKERS = _arg("--workers", type=_COUNT,
                help="worker processes (default: all CPU cores; "
                     "results identical at any count)")
_NO_CACHE = _arg("--no-cache", action="store_true",
                 help="ignore cached results (fresh results still stored)")
_CACHE_DIR = _arg("--cache-dir",
                  help="cache root (default: $REPRO_SWEEP_CACHE or "
                       "~/.cache/repro/sweeps)")
_JOURNAL = _arg("--journal",
                help="write-ahead journal (JSONL) recording every "
                     "completed cell for crash-safe resume")
_RETRIES = _arg("--retries", type=_int_at_least(0), default=2,
                help="retries per failing cell before it becomes a "
                     "structured CellFailure result")


class _Command(NamedTuple):
    """One ``repro`` command: its help, its arguments and its runner."""

    help: str
    arguments: Sequence[tuple]
    run: Callable[[argparse.Namespace], int]


#: Every command, in ``repro --help`` order.
COMMANDS: Dict[str, _Command] = {}


def _command(name: str, help: str, *arguments: tuple):
    """File the decorated function in :data:`COMMANDS` as ``name``."""

    def register(run):
        COMMANDS[name] = _Command(help, arguments, run)
        return run

    return register


@_command("workloads", "list workloads and rate bands")
def _cmd_workloads(_args) -> int:
    from repro.analysis.tables import format_table
    from repro.datagen.rates import PAPER_RATE_BANDS, RATE_BAND_ALIASES
    from repro.workloads import WORKLOADS

    bands = [
        (name, PAPER_RATE_BANDS.get(RATE_BAND_ALIASES.get(name, name)))
        for name in WORKLOADS
    ]
    rows = [(name, f"[{b[0]:,} .. {b[1]:,}] rec/s" if b else "-")
            for name, b in bands]
    print(format_table(["workload", "paper rate band"], rows,
                       title="Available workloads"))
    return 0


def _nostop(args, telemetry=None):
    """NoStop on ``--workload`` at ``--seed`` for ``--rounds`` rounds:
    the deployment, the controller and the controller's report."""
    from repro.experiments.common import build_experiment, make_controller

    setup = build_experiment(args.workload, seed=args.seed,
                             telemetry=telemetry)
    controller = make_controller(setup, seed=args.seed)
    return setup, controller, controller.run(args.rounds)


@_command(
    "run", "run NoStop on a workload",
    _workload(), _rounds(30), _seed(0),
    _arg("--trace-out", help="write the run trajectory as JSON"),
)
def _cmd_run(args) -> int:
    from repro.analysis.tables import format_table
    from repro.analysis.traces import ExperimentTrace

    _, controller, report = _nostop(args)
    rows = [
        (r.round_index, r.phase, f"{r.batch_interval:.2f}", r.num_executors,
         f"{r.mean_processing_time:.2f}" if r.mean_processing_time else "-")
        for r in report.rounds
    ]
    print(format_table(
        ["round", "phase", "interval (s)", "executors", "proc (s)"],
        rows,
        title=f"NoStop on {args.workload} (seed {args.seed})",
    ))
    best = controller.pause_rule.best_config()
    print(f"\nfinal: interval={report.final_interval:.2f}s x "
          f"{report.final_executors} executors "
          f"(stable={best.stable}, delay~{best.end_to_end_delay:.2f}s)")
    print(f"configuration changes: {report.config_changes}, "
          f"resets: {report.resets}, "
          f"paused at round: {report.first_pause_round}")

    if args.trace_out:
        trace = ExperimentTrace(
            experiment=f"nostop-{args.workload}",
            metadata={"seed": args.seed, "rounds": args.rounds},
        )
        trace.add_series("interval", [r.batch_interval for r in report.rounds])
        trace.add_series("executors", [r.num_executors for r in report.rounds])
        trace.add_series(
            "processing_time",
            [r.mean_processing_time for r in report.rounds],
        )
        trace.add_series("phase", [r.phase for r in report.rounds])
        path = trace.save(args.trace_out)
        print(f"trace written to {path}")
    return 0


def _run_with_telemetry(args, task_detail: bool = False):
    """Shared setup for ``trace`` / ``metrics``: an instrumented run,
    shipping its events to ``--events-out`` when that is set."""
    from repro.obs import EmissionBatcher, JsonlSink, Telemetry

    telemetry = Telemetry(
        enabled=True,
        task_detail=task_detail,
        sample_rate=getattr(args, "sample", 1),
        retain_interesting=not getattr(args, "no_retain", False),
    )
    if getattr(args, "events_out", None):
        telemetry.attach_emitter(EmissionBatcher(
            JsonlSink(args.events_out), registry=telemetry.metrics
        ))
    return telemetry, _nostop(args, telemetry)[0]


@_command(
    "trace", "NoStop run with batch tracing on",
    _workload(), _rounds(10), _seed(0),
    _arg("--last", type=int, default=3,
         help="how many trailing batch traces to print"),
    _arg("--tasks", action="store_true",
         help="emit per-task spans too (verbose)"),
    _arg("--out", help="write all spans as JSONL"),
    _arg("--audit-out", help="write the SPSA audit trail as JSONL"),
    _arg("--chrome", help="write a Chrome Trace Event JSON file "
                          "(open in Perfetto / chrome://tracing)"),
    _arg("--folded",
         help="write folded stacks for flamegraph.pl / speedscope"),
    _arg("--critical", action="store_true",
         help="print the critical-path delay decomposition and "
              "cross-check it against the steady-state oracle"),
    _arg("--sample", type=_COUNT, default=1,
         help="head-sample 1/N of batch traces (deterministic; "
              "tail retention still keeps interesting traces)"),
    _arg("--no-retain", action="store_true",
         help="disable tail-based retention of interesting traces"),
)
def _cmd_trace(args) -> int:
    from repro import obs

    telemetry, setup = _run_with_telemetry(args, task_detail=args.tasks)
    tracer = telemetry.tracer
    tracer.finalize_all()
    spans = tracer.spans
    print(obs.render_timeline(spans, last_n_traces=args.last))
    n_traces = len(tracer.trace_ids())
    print(f"\n{len(spans)} spans across {n_traces} batch traces "
          f"({tracer.dropped_spans} dropped); "
          f"audit: {len(telemetry.audit)} decisions, "
          f"{len(telemetry.audit.firings)} rule firings")
    if args.sample > 1 or tracer.evicted_traces:
        retained = " ".join(
            f"{reason}={n}"
            for reason, n in sorted(tracer.retained_by_reason.items())
        )
        print(f"flight recorder: 1/{args.sample} sampling, "
              f"{tracer.retained_traces} retained"
              + (f" ({retained})" if retained else "")
              + f", {tracer.evicted_traces} evicted")
    if args.critical:
        section = obs.breakdown_section(obs.analyze_spans(spans).to_dict())
        print("\n" + obs.section_text(section))
        batches = setup.context.listener.metrics.batches
        agreement = obs.steady_state_agreement(obs.decompose_spans(spans), batches)
        if agreement.samples:
            mark = "AGREE" if agreement.ok else "DISAGREE"
            print(f"steady-state oracle cross-check: trace-side "
                  f"{agreement.expected:.3f}s vs batch-side "
                  f"{agreement.actual:.3f}s over {agreement.samples} "
                  f"batches (tol {agreement.tolerance:.3f}s) -> {mark}")
            if not agreement.ok:
                return 1
        else:
            print("steady-state oracle cross-check: no matchable batches")
    for path, save, what in ((args.out, obs.save_spans, "spans"),
                             (args.chrome, obs.save_chrome_trace, "Chrome trace"),
                             (args.folded, obs.save_folded, "folded stacks")):
        if path:
            print(f"{what} written to {save(spans, path)}")
    if args.audit_out:
        print(f"audit trail written to {telemetry.audit.save(args.audit_out)}")
    mismatches = telemetry.audit.replay(box=setup.scaler.scaled)
    if mismatches:
        print(f"AUDIT REPLAY FAILED: {len(mismatches)} mismatches",
              file=sys.stderr)
        return 1
    print("audit replay: all recorded steps match the optimizer arithmetic")
    return 0


@_command(
    "metrics", "metrics snapshot of a NoStop run, or the generated catalog",
    _arg("action", nargs="?", default="snapshot",
         choices=["snapshot", "catalog"],
         help="snapshot: instrumented run + registry dump; "
              "catalog: the declarative metric catalog docs"),
    _workload(), _rounds(10), _seed(0),
    _arg("--format", choices=["prom", "summary"], default="summary"),
    _arg("--json", action="store_true",
         help="snapshot as JSON events (sorted keys, one object "
              "per sample) instead of text"),
    _arg("--filter", metavar="PREFIX",
         help="restrict the snapshot to metric names starting "
              "with PREFIX; exits 2 when nothing matches"),
    _arg("--out", help="also write the snapshot here"),
    _arg("--events-out", metavar="JSONL",
         help="ship per-batch events and the final registry "
              "snapshot through the batched emission pipeline "
              "into this JSONL file"),
    _arg("--check", action="store_true",
         help="catalog: verify the checked-in docs match the "
              "declarations (exit 1 on drift)"),
    _arg("--write", action="store_true",
         help="catalog: regenerate docs/METRICS.md and docs/metrics.json"),
    _arg("--docs-dir", default="docs",
         help="catalog: directory holding the generated docs"),
)
def _cmd_metrics(args) -> int:
    if args.action == "catalog":
        return _cmd_metrics_catalog(args)

    from repro.obs import metric_events, prometheus_text, render_metrics_summary

    telemetry, setup = _run_with_telemetry(args)
    batcher = telemetry.emitter
    registry = telemetry.metrics
    if args.filter:
        # Exporters only call collect(): a filtered snapshot keeps their
        # output ordering (and thus determinism) intact.
        matched = [
            m for m in registry.collect() if m.name.startswith(args.filter)
        ]
        if not matched:
            print(f"no metric matches prefix {args.filter!r}",
                  file=sys.stderr)
            telemetry.close_emitter()
            return 2
        registry = SimpleNamespace(collect=lambda: matched)

    if args.json:
        text = json.dumps(metric_events(registry, time=setup.context.time),
                          indent=2, sort_keys=True)
    elif args.format == "prom":
        text = prometheus_text(registry)
    else:
        text = render_metrics_summary(registry)
    print(text)

    if args.out:
        if not text:
            # Empty-registry export is a no-op: never leave a zero-byte
            # scrape file behind.
            print("\nempty snapshot; nothing written", file=sys.stderr)
        else:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
            print(f"\nsnapshot written to {args.out}", file=sys.stderr)

    if batcher is not None:
        # Final registry snapshot rides the same pipeline as the
        # per-batch events, then flush-on-close seals the file.
        for event in metric_events(telemetry.metrics,
                                   time=setup.context.time):
            batcher.emit(event, now=setup.context.time)
        telemetry.close_emitter()
        print(
            f"events written to {args.events_out} "
            f"({batcher.flushed} shipped, {batcher.dropped} dropped, "
            f"{batcher.flushes} flushes)",
            file=sys.stderr,
        )
    return 0


def _cmd_metrics_catalog(args) -> int:
    """Generate (or verify) the checked-in metric catalog docs."""
    from repro.obs import catalog_json, catalog_markdown, lint_catalog

    problems = lint_catalog()
    if problems:
        for p in problems:
            print(f"catalog lint: {p}", file=sys.stderr)
        return 1

    md = catalog_markdown()
    js = catalog_json()
    md_path = os.path.join(args.docs_dir, "METRICS.md")
    json_path = os.path.join(args.docs_dir, "metrics.json")

    if args.check:
        stale = [
            path for path, want in ((md_path, md), (json_path, js))
            if not os.path.isfile(path)
            or Path(path).read_text(encoding="utf-8") != want
        ]
        if stale:
            for path in stale:
                print(f"stale generated file: {path} "
                      "(run `repro metrics catalog --write`)",
                      file=sys.stderr)
            return 1
        print("metrics catalog up to date")
        return 0

    if args.write:
        os.makedirs(args.docs_dir, exist_ok=True)
        Path(md_path).write_text(md, encoding="utf-8")
        Path(json_path).write_text(js, encoding="utf-8")
        print(f"wrote {md_path} and {json_path}")
        return 0

    print(md, end="")
    return 0


@_command(
    "report", "judged chaos run: SLOs, alerts, anomalies, delay, MTTR",
    _workload(), _rounds(40), _seed(7),
    _arg("--rate-shift-at", type=float, default=600.0,
         help="simulated time of the scripted §5.5 rate shift"),
    _arg("--rate-shift-multiplier", type=_positive, default=0.25),
    _arg("--html",
         help="write a self-contained single-file HTML report here"),
    _arg("--json", help="write the report as JSON"),
)
def _cmd_report(args) -> int:
    """One judged chaos run distilled into a self-contained report.

    Exit status 1 signals a critical SLO breach (the CI gate); 0 means
    the run stayed on the rails.
    """
    from repro.experiments.common import judged_chaos_run

    started = time.perf_counter()  # det: allow-wallclock
    report = judged_chaos_run(
        workload_name=args.workload,
        rounds=args.rounds,
        seed=args.seed,
        rate_shift_at=args.rate_shift_at,
        rate_shift_multiplier=args.rate_shift_multiplier,
    ).report
    judged = time.perf_counter()  # det: allow-wallclock
    text = report.render_text()
    html = report.render_html() if args.html else None
    payload = report.to_json() if args.json else None
    rendered = time.perf_counter()  # det: allow-wallclock
    print(text)
    if html is not None:
        Path(args.html).write_text(html + "\n", encoding="utf-8")
        print(f"\nHTML report written to {args.html}", file=sys.stderr)
    if payload is not None:
        Path(args.json).write_text(payload + "\n", encoding="utf-8")
        print(f"JSON report written to {args.json}", file=sys.stderr)
    # Wall-clock attribution goes to stderr: real seconds are useful at
    # the terminal but must never leak into the deterministic artifacts.
    print(f"\nwall-clock profile:\n"
          f"run+judge  {judged - started:>9.3f}s  x1\n"
          f"render     {rendered - judged:>9.3f}s  x1", file=sys.stderr)
    return 1 if report.critical_breach else 0


def _driver(name: str):
    """``repro.experiments.run_<name>``, the driver of figure ``name``."""
    return getattr(import_module("repro.experiments"), f"run_{name}")


class _Sweepable(NamedTuple):
    """A figure whose driver prints a table and also runs on the sweep
    runner.  ``repeats``: the driver takes repeats and a base seed (and,
    under ``sweep``, NoStop rounds and a workload list) rather than one
    seed; ``tiered``: ``sweep`` passes it the tier, count-only datagen
    and a workload."""

    repeats: bool = False
    tiered: bool = False

    def __call__(self, name: str, args, runner=None) -> None:
        kwargs = (
            {"repeats": args.repeats, "base_seed": args.seed}
            if self.repeats else {"seed": args.seed}
        )
        if runner is not None:
            kwargs["runner"] = runner
            if self.tiered:
                kwargs.update(count_only=args.count_only,
                              fidelity=args.fidelity)
            if self.repeats:
                kwargs["rounds"] = args.rounds
            if self.tiered and args.workload:
                kwargs.update({"workloads": [args.workload]} if self.repeats
                              else {"workload": args.workload})
        print(_driver(name)(**kwargs).to_table())


def _cluster_table(_name: str, _args, _runner=None) -> None:
    from repro.analysis.tables import format_table
    from repro.cluster import paper_cluster

    rows = [
        (n.node_id, f"{n.cpu.model} {n.cpu.clock_ghz}GHz",
         n.disk.value.upper(), n.role.value.capitalize())
        for n in paper_cluster()
    ]
    print(format_table(["Node ID", "CPU", "Disk", "Type"], rows,
                       title="Table 2: list of cluster nodes"))


def _evolution(name: str, args, _runner=None) -> None:
    for trace in _driver(name)(seed=args.seed).values():
        print(trace.to_text())
        best = trace.report.best
        print(f"  settled: {best.batch_interval:.2f}s x "
              f"{best.num_executors} (stable={best.stable})\n")


#: Every paper figure and table ``figure`` regenerates, in order, with
#: the function that prints it; ``sweep`` runs the sweepable ones.
FIGURES: Dict[str, Callable[..., None]] = {
    "table2": _cluster_table,
    "fig2": _Sweepable(tiered=True),
    "fig3": _Sweepable(tiered=True),
    "fig5": _Sweepable(),
    "fig6": _evolution,
    "fig7": _Sweepable(repeats=True, tiered=True),
    "fig8": _Sweepable(repeats=True, tiered=True),
}
_SWEEPS = [n for n, f in FIGURES.items() if isinstance(f, _Sweepable)]
_REPEATED = "/".join(n for n in _SWEEPS if FIGURES[n].repeats)
_TIERED = "/".join(n for n in _SWEEPS if FIGURES[n].tiered)
_UNTIERED = "/".join(n for n in _SWEEPS if not FIGURES[n].tiered)
_FIGURE_REPEATS = _repeats(3, help=f"repeats for {_REPEATED} (paper uses 5)")


@_command(
    "figure", "regenerate one paper figure/table",
    _arg("name", help=" | ".join(FIGURES)),
    _seed(1),
    _FIGURE_REPEATS,
)
def _cmd_figure(args) -> int:
    name = args.name.lower()
    if name not in FIGURES:
        print(f"unknown figure {args.name!r}; expected "
              f"{'/'.join(FIGURES)}", file=sys.stderr)
        return 2
    FIGURES[name](name, args)
    return 0


def _runner(args):
    """The sweep runner that the runner flags ask for."""
    from repro.runner import ResultCache, RetryPolicy, SweepJournal, SweepRunner

    journal = getattr(args, "resume", None) or args.journal
    return SweepRunner(
        workers=args.workers or os.cpu_count() or 1,
        cache=ResultCache(args.cache_dir or None),
        use_cache=not args.no_cache,
        journal=SweepJournal(Path(journal)) if journal else None,
        retry=RetryPolicy(max_retries=args.retries,
                          timeout_seconds=getattr(args, "timeout", None)),
    )


def _print_totals(label: str, runner):
    """Print the runner's totals and failed cells to stderr; return the
    totals."""
    t = runner.totals
    print(
        f"\n{label}: {t.cells} cells | {t.cache_hits} cache hits, "
        f"{t.executed} executed ({t.batches_executed} batches simulated), "
        f"{t.failed} failed | "
        f"{t.workers} worker(s), {t.wall_seconds:.2f}s wall | "
        f"cache: {runner.cache.root}",
        file=sys.stderr,
    )
    for failure in runner.failures:
        print(
            f"  cell {failure.get('cellIndex')} "
            f"({failure.get('cellKind')}): {failure.get('failure')} "
            f"after {failure.get('attempts')} attempt(s) — "
            f"{failure.get('error')}",
            file=sys.stderr,
        )
    return t


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@_command(
    "sweep", "run a figure sweep via the parallel, cached sweep runner",
    _arg("name", nargs="?", help=" | ".join(_SWEEPS)),
    _workload(None, help=f"restrict {_TIERED} to one workload"),
    _seed(1),
    _FIGURE_REPEATS,
    _rounds(40, help=f"NoStop rounds for {_REPEATED}"),
    _WORKERS,
    _fidelity("exact", "simulation tier: exact per-task DES (default), "
                       "the numpy-vectorized batch engine, or the analytic "
                       f"fluid model ({_UNTIERED} is rate-only and "
                       "tier-independent)"),
    _NO_CACHE,
    _arg("--clear-cache", action="store_true",
         help="delete every cached cell before running"),
    _CACHE_DIR,
    _arg("--count-only", action="store_true",
         help="segment-per-rate-span datagen fast path "
              "(deterministic, but not byte-identical to the "
              "default per-tick path)"),
    _arg("--json", help="write sweep/cache accounting as JSON (always a "
                        "valid document, even when cells fail)"),
    _JOURNAL,
    _arg("--resume", metavar="JOURNAL",
         help="resume an interrupted sweep from its journal "
              "(implies --journal JOURNAL)"),
    _RETRIES,
    _arg("--timeout", type=_positive,
         help="per-cell timeout in seconds (forces pooled "
              "execution so hung cells can be terminated)"),
    _arg("--strict", action="store_true",
         help="exit 1 if any cell failed (default: degrade "
              "gracefully and exit 0)"),
)
def _cmd_sweep(args) -> int:
    runner = _runner(args)
    cache = runner.cache
    if args.clear_cache:
        removed = cache.clear()
        print(f"cache cleared: {removed} entries removed from {cache.root}",
              file=sys.stderr)
        if args.name is None:
            return 0
    if args.name is None:
        print(f"no sweep named; use {'/'.join(_SWEEPS)} or --clear-cache",
              file=sys.stderr)
        return 2
    name = args.name.lower()
    if name not in _SWEEPS:
        print(f"unknown sweep {args.name!r}; expected {'/'.join(_SWEEPS)}",
              file=sys.stderr)
        return 2
    # A failed cell comes back as a structured CellFailure result; most
    # figure drivers then choke assembling their table.  The sweep/json
    # accounting below must survive that, so the driver is guarded and
    # the error carried into the payload instead of aborting the CLI.
    error: Optional[str] = None
    try:
        FIGURES[name](name, args, runner)
    except Exception as exc:  # noqa: BLE001 - reported in payload/stderr
        error = f"{type(exc).__name__}: {exc}"
        print(f"sweep driver failed: {error}", file=sys.stderr)

    t = _print_totals("sweep", runner)
    if args.json:
        # Every SweepStats field, camelCased, plus the sweep's identity.
        _write_json(args.json, {
            **{
                re.sub("_(.)", lambda m: m[1].upper(), field): value
                for field, value in vars(t).items()
            },
            "sweep": name,
            "status": "error" if error else ("failed" if t.failed else "ok"),
            "error": error,
            "cacheDir": str(cache.root),
            "journal": args.resume or args.journal or None,
            "versionTag": cache.version_tag,
            "cellFailures": runner.failures,
        })
        print(f"sweep stats written to {args.json}", file=sys.stderr)
    return 1 if (t.failed or error) and args.strict else 0


def _names(text: Optional[str], default: Sequence[str],
           known: Sequence[str], kind: str) -> Optional[List[str]]:
    """The comma list ``text`` (``default`` when unset), or None after
    reporting the names in it that are not ``known``."""
    names = (
        [s.strip() for s in text.split(",") if s.strip()]
        if text else list(default)
    )
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"unknown {kind}(s) {unknown}; expected {list(known)}",
              file=sys.stderr)
        return None
    return names


@_command(
    "tournament",
    "rank every registered tuner across scenario shapes on the "
    "parallel sweep runner",
    _arg("--tuners",
         help="comma list of tuner names (default: all registered)"),
    _arg("--scenarios", help="comma list of scenario shapes "
                             "(default: steady,step,spike; also: sine)"),
    _workload(),
    _arg("--budget", type=_COUNT, default=30,
         help="objective evaluations per tuner run"),
    _seed(1),
    _repeats(1, help="seeds per (tuner, scenario) cell, spaced by 100"),
    _fidelity("vectorized", "simulation tier (default: the "
                            "oracle-validated vectorized engine)"),
    _arg("--slo", type=_positive, default=30.0,
         help="end-to-end delay SLO in seconds"),
    _WORKERS, _NO_CACHE, _CACHE_DIR, _JOURNAL, _RETRIES,
    _arg("--json", help="write the leaderboard as sorted-key JSON "
                        "(byte-identical at a fixed seed)"),
    _arg("--strict", action="store_true", help="exit 1 if any cell failed"),
)
def _cmd_tournament(args) -> int:
    from repro import tuners
    from repro.runner.spec import SweepSpec

    roster = _names(args.tuners, tuners.tuner_names(), tuners.tuner_names(),
                    "tuner")
    scenarios = _names(args.scenarios, ["steady", "step", "spike"],
                       tuners.scenario_names(), "scenario")
    if roster is None or scenarios is None:
        return 2
    spec = SweepSpec(
        name="tournament",
        kind="tournament",
        base={
            "workload": args.workload,
            "budget": args.budget,
            "fidelity": args.fidelity,
            "slo_delay": args.slo,
        },
        grid={
            "tuner": roster,
            "scenario": scenarios,
            "seed": [args.seed + 100 * r for r in range(args.repeats)],
        },
    )
    runner = _runner(args)
    sweep = runner.run(spec)
    payload = tuners.build_leaderboard(
        sweep.results,
        budget=args.budget,
        slo_delay=args.slo,
        fidelity=args.fidelity,
    )
    print(tuners.render_leaderboard(payload))
    t = _print_totals("tournament", runner)
    if args.json:
        _write_json(args.json, payload)
        print(f"leaderboard written to {args.json}", file=sys.stderr)
    return 1 if (t.failed and args.strict) else 0


@_command(
    "compare", "compare optimizers on one workload",
    _workload("linear_regression"), _rounds(30), _seed(0),
)
def _cmd_compare(args) -> int:
    from repro.analysis.tables import format_table
    from repro.experiments.common import build_experiment, run_search

    _, controller, report = _nostop(args)
    best = controller.pause_rule.best_config()
    rows = [("SPSA (NoStop)", f"{best.end_to_end_delay:.2f}",
             report.adjust_calls_to_pause or controller.adjust.calls,
             "yes" if report.first_pause_round else "no")]

    # Every baseline runs through the shared tuner loop and reports the
    # pause rule's stable-first pick; BO also confirms its winner.
    for label, tuner in (("Bayesian opt", "bo"),
                         ("Simulated annealing", "annealing"),
                         ("Random search", "random")):
        setup = build_experiment(args.workload, seed=args.seed)
        run = run_search(setup, tuner, seed=args.seed,
                         max_evaluations=2 * args.rounds,
                         confirm=tuner == "bo")
        rows.append((label, f"{run.best_delay:.2f}", run.evaluations,
                     "yes" if run.converged else "no"))

    print(format_table(
        ["optimizer", "final delay (s)", "config steps", "converged"],
        rows,
        title=f"Optimizer comparison on {args.workload} (seed {args.seed})",
    ))
    return 0


@_command(
    "check",
    "run a target with runtime invariants attached and compare "
    "against the analytic oracles",
    _arg("target", nargs="?", default="quickstart",
         choices=_Choices("repro.check.run", "CHECK_TARGETS")),
    _workload(None, help="override the target's default workload"),
    _seed(None, help="override the target's default seed"),
    _arg("--batches", type=_COUNT, default=30,
         help="batches for fixed-configuration targets"),
    _rounds(40, help="optimizer rounds for fig7/chaos targets"),
    _arg("--warmup", type=int, default=5,
         help="batches excluded from oracle comparison"),
    _arg("--metamorphic", action="store_true",
         help="also run the time-dilation twin and the "
              "executor-homogeneity identity"),
    _fidelity("exact", "simulation tier to check (chaos requires exact)"),
    _arg("--strict", action="store_true",
         help="exit non-zero on any violation or oracle failure"),
    _arg("--json", help="write the full check report as JSON"),
)
def _cmd_check(args) -> int:
    from repro.check import run_check

    report = run_check(
        target=args.target,
        workload=args.workload,
        seed=args.seed,
        batches=args.batches,
        rounds=args.rounds,
        warmup=args.warmup,
        metamorphic=args.metamorphic,
        fidelity=args.fidelity,
    )
    print(report.render_text())
    if args.json:
        Path(args.json).write_text(report.to_json(), encoding="utf-8")
        print(f"wrote {args.json}")
    return 1 if args.strict and not report.ok else 0


@_command(
    "dash", "generate the Grafana dashboard JSON from the metric catalog",
    _arg("--out", help="write the dashboard here (default: stdout)"),
    _arg("--title", default="NoStop repro telemetry"),
)
def _cmd_dash(args) -> int:
    from repro.obs import dashboard_json

    text = dashboard_json(title=args.title)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


@_command(
    "lint",
    "lint: unseeded RNGs, wall-clock reads, unordered iteration, "
    "unused public symbols",
    _arg("paths", nargs="*", default=None,
         help="files or directories (default: the installed "
              "repro package source)"),
    _arg("--json", help="write findings as JSON"),
)
def _cmd_lint(args) -> int:
    from repro.check.lint import lint_paths

    findings = lint_paths(args.paths or [str(Path(__file__).parent)])
    for f in findings:
        print(f.format())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                [f.to_dict() for f in findings], fh, indent=2, sort_keys=True
            )
        print(f"wrote {args.json}")
    if findings:
        print(f"{len(findings)} lint finding(s)")
        return 1
    print("repro lint clean")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser: one subcommand per :data:`COMMANDS` entry."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NoStop reproduction (ICPP 2021) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        command = sub.add_parser(name, help=entry.help)
        for flags, kwargs in entry.arguments:
            # add_argument formats the choices once as a check; set them
            # afterwards so that lazy choices stay unread until used.
            rest = {k: v for k, v in kwargs.items() if k != "choices"}
            command.add_argument(*flags, **rest).choices = kwargs.get("choices")
        command.set_defaults(func=entry.run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

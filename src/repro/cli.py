"""Command-line interface.

Run ``python -m repro <command>``:

* ``run``       — NoStop on one workload, with a per-round trajectory and
                  an optional JSON trace dump;
* ``trace``     — NoStop run with batch-lifecycle tracing on: prints a
                  span timeline, optionally dumps spans / the SPSA audit
                  trail as JSONL;
* ``metrics``   — NoStop run with metrics on: prints a Prometheus
                  text-exposition snapshot, a human-readable summary, or
                  JSON events (``--json``/``--filter``/``--events-out``);
                  ``metrics catalog`` renders the declarative metric
                  catalog (``--write`` regenerates docs, ``--check``
                  fails on drift);
* ``dash``      — generate the Grafana dashboard JSON from the catalog;
* ``report``    — one judged chaos run distilled into a run report (SLO
                  verdicts, burn-rate alerts, anomalies, hotspots, MTTR,
                  SPSA history); exits 1 on a critical SLO breach;
* ``figure``    — regenerate one paper figure/table (fig2 fig3 fig5 fig6
                  fig7 fig8 table2);
* ``sweep``     — run a figure sweep through the parallel sweep runner
                  with the content-addressed result cache (``--workers``,
                  ``--no-cache``, ``--clear-cache``, ``--cache-dir``);
* ``tournament``— rank every registered tuner (SPSA, BO, annealing,
                  random, grid, RL, safe-online) across scenario shapes
                  on the parallel runner; ``--json`` writes the
                  byte-deterministic leaderboard;
* ``compare``   — SPSA vs BO vs annealing vs random search on one workload;
* ``workloads`` — list available workloads and their paper rate bands.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.analysis.traces import ExperimentTrace
from repro.datagen.rates import PAPER_RATE_BANDS, RATE_BAND_ALIASES
from repro.workloads import WORKLOADS


def _cmd_workloads(_args) -> int:
    rows = []
    for name in WORKLOADS:
        band_key = RATE_BAND_ALIASES.get(name, name)
        band = PAPER_RATE_BANDS.get(band_key)
        band_str = f"[{band[0]:,} .. {band[1]:,}] rec/s" if band else "-"
        rows.append((name, band_str))
    print(format_table(["workload", "paper rate band"], rows,
                       title="Available workloads"))
    return 0


def _cmd_run(args) -> int:
    from repro.experiments.common import build_experiment, make_controller

    setup = build_experiment(args.workload, seed=args.seed)
    controller = make_controller(setup, seed=args.seed)
    report = controller.run(args.rounds)

    rows = []
    for r in report.rounds:
        rows.append((
            r.round_index, r.phase, f"{r.batch_interval:.2f}",
            r.num_executors,
            f"{r.mean_processing_time:.2f}" if r.mean_processing_time else "-",
        ))
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


def _run_with_telemetry(args, task_detail: bool = False,
                        emitter_factory=None):
    """Shared setup for ``trace`` / ``metrics``: an instrumented run."""
    from repro.experiments.common import build_experiment, make_controller
    from repro.obs import Telemetry

    telemetry = Telemetry(
        enabled=True,
        task_detail=task_detail,
        sample_rate=getattr(args, "sample", 1),
        retain_interesting=not getattr(args, "no_retain", False),
    )
    if emitter_factory is not None:
        telemetry.attach_emitter(emitter_factory(telemetry.metrics))
    setup = build_experiment(args.workload, seed=args.seed,
                             telemetry=telemetry)
    controller = make_controller(setup, seed=args.seed)
    controller.run(args.rounds)
    return telemetry, setup, controller


def _cmd_trace(args) -> int:
    from repro.obs import (
        analyze_spans,
        decompose_spans,
        render_breakdown,
        render_timeline,
        save_chrome_trace,
        save_folded,
        save_spans,
        steady_state_agreement,
    )

    telemetry, setup, controller = _run_with_telemetry(
        args, task_detail=args.tasks
    )
    tracer = telemetry.tracer
    tracer.finalize_all()
    spans = tracer.spans
    print(render_timeline(spans, last_n_traces=args.last))
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
        breakdown = analyze_spans(spans)
        print("\n-- where the delay went (critical path) --")
        print(render_breakdown(breakdown))
        batches = setup.context.listener.metrics.batches
        agreement = steady_state_agreement(decompose_spans(spans), batches)
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
    if args.out:
        print(f"spans written to {save_spans(spans, args.out)}")
    if args.chrome:
        print(f"Chrome trace written to {save_chrome_trace(spans, args.chrome)}")
    if args.folded:
        print(f"folded stacks written to {save_folded(spans, args.folded)}")
    if args.audit_out:
        print(f"audit trail written to {telemetry.audit.save(args.audit_out)}")
    mismatches = telemetry.audit.replay(box=setup.scaler.scaled)
    if mismatches:
        print(f"AUDIT REPLAY FAILED: {len(mismatches)} mismatches",
              file=sys.stderr)
        return 1
    print("audit replay: all recorded steps match the optimizer arithmetic")
    return 0


class _PrefixView:
    """Registry view restricted to names starting with a prefix.

    Exporters only need ``collect()``; the view keeps their output
    ordering (and thus determinism) intact.
    """

    def __init__(self, registry, prefix: str) -> None:
        self._registry = registry
        self.prefix = prefix

    def collect(self):
        return [
            m for m in self._registry.collect()
            if m.name.startswith(self.prefix)
        ]


def _cmd_metrics(args) -> int:
    if args.action == "catalog":
        return _cmd_metrics_catalog(args)
    import json as _json

    from repro.obs import (
        EmissionBatcher,
        JsonlSink,
        metric_events,
        prometheus_text,
        render_metrics_summary,
    )

    batcher = None

    def _make_emitter(registry):
        nonlocal batcher
        batcher = EmissionBatcher(JsonlSink(args.events_out),
                                  registry=registry)
        return batcher

    telemetry, setup, _ = _run_with_telemetry(
        args,
        emitter_factory=_make_emitter if args.events_out else None,
    )

    registry = telemetry.metrics
    if args.filter:
        view = _PrefixView(registry, args.filter)
        if not view.collect():
            print(f"no metric matches prefix {args.filter!r}",
                  file=sys.stderr)
            if batcher is not None:
                telemetry.close_emitter()
            return 2
        registry = view

    if args.json:
        events = metric_events(registry, time=setup.context.time)
        text = _json.dumps(events, indent=2, sort_keys=True)
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
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
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
    import os

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
        stale = []
        for path, want in ((md_path, md), (json_path, js)):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    have = fh.read()
            except OSError:
                have = None
            if have != want:
                stale.append(path)
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
        with open(md_path, "w", encoding="utf-8") as fh:
            fh.write(md)
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(js)
        print(f"wrote {md_path} and {json_path}")
        return 0

    print(md, end="")
    return 0


def _cmd_dash(args) -> int:
    """Generate the Grafana dashboard JSON from the catalog."""
    from repro.obs import dashboard_json

    text = dashboard_json(title=args.title)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_report(args) -> int:
    """One judged chaos run distilled into a self-contained report.

    Exit status 1 signals a critical SLO breach (the CI gate); 0 means
    the run stayed on the rails.
    """
    from repro.experiments.common import judged_chaos_run
    from repro.obs.profiler import WallClockProfiler

    wall = WallClockProfiler()
    with wall.section("run+judge"):
        run = judged_chaos_run(
            workload_name=args.workload,
            rounds=args.rounds,
            seed=args.seed,
            rate_shift_at=args.rate_shift_at,
            rate_shift_multiplier=args.rate_shift_multiplier,
        )
    report = run.report
    with wall.section("render"):
        text = report.render_text()
        html = report.render_html() if args.html else None
        payload = report.to_json() if args.json else None
    print(text)
    if html is not None:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(html + "\n")
        print(f"\nHTML report written to {args.html}", file=sys.stderr)
    if payload is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"JSON report written to {args.json}", file=sys.stderr)
    # Wall-clock attribution goes to stderr: real seconds are useful at
    # the terminal but must never leak into the deterministic artifacts.
    print("\nwall-clock profile:\n" + wall.render(), file=sys.stderr)
    return 1 if report.critical_breach else 0


def _cmd_figure(args) -> int:
    name = args.name.lower()
    if name == "table2":
        from repro.cluster import paper_cluster

        cluster = paper_cluster()
        rows = [
            (n.node_id, f"{n.cpu.model} {n.cpu.clock_ghz}GHz",
             n.disk.value.upper(), n.role.value.capitalize())
            for n in cluster
        ]
        print(format_table(["Node ID", "CPU", "Disk", "Type"], rows,
                           title="Table 2: list of cluster nodes"))
        return 0
    if name == "fig2":
        from repro.experiments.fig2_batch_interval import run_fig2

        print(run_fig2(seed=args.seed).to_table())
        return 0
    if name == "fig3":
        from repro.experiments.fig3_executors import run_fig3

        print(run_fig3(seed=args.seed).to_table())
        return 0
    if name == "fig5":
        from repro.experiments.fig5_rates import run_fig5

        print(run_fig5(seed=args.seed).to_table())
        return 0
    if name == "fig6":
        from repro.experiments.fig6_evolution import run_fig6

        for wname, trace in run_fig6(seed=args.seed).items():
            print(trace.to_text())
            best = trace.report.best
            print(f"  settled: {best.batch_interval:.2f}s x "
                  f"{best.num_executors} (stable={best.stable})\n")
        return 0
    if name == "fig7":
        from repro.experiments.fig7_improvement import run_fig7

        print(run_fig7(repeats=args.repeats, base_seed=args.seed).to_table())
        return 0
    if name == "fig8":
        from repro.experiments.fig8_spsa_vs_bo import run_fig8

        print(run_fig8(repeats=args.repeats, base_seed=args.seed).to_table())
        return 0
    print(f"unknown figure {args.name!r}; expected "
          f"table2/fig2/fig3/fig5/fig6/fig7/fig8", file=sys.stderr)
    return 2


def _cmd_sweep(args) -> int:
    """Run a figure sweep through the supervised, cached sweep runner."""
    import json as _json
    from pathlib import Path

    from repro.runner import (
        ResultCache,
        RetryPolicy,
        SweepJournal,
        SweepRunner,
        default_cache_dir,
    )

    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    cache = ResultCache(cache_dir)
    if args.clear_cache:
        removed = cache.clear()
        print(f"cache cleared: {removed} entries removed from {cache_dir}",
              file=sys.stderr)
        if args.name is None:
            return 0
    if args.name is None:
        print("no sweep named; use fig2/fig3/fig5/fig7/fig8 or --clear-cache",
              file=sys.stderr)
        return 2

    journal_path = args.resume or args.journal
    journal = SweepJournal(Path(journal_path)) if journal_path else None
    retry = RetryPolicy(
        max_retries=args.retries, timeout_seconds=args.timeout
    )
    import os as _os

    workers = args.workers if args.workers else (_os.cpu_count() or 1)
    runner = SweepRunner(
        workers=workers, cache=cache, use_cache=not args.no_cache,
        journal=journal, retry=retry,
    )
    name = args.name.lower()
    # A failed cell comes back as a structured CellFailure result; most
    # figure drivers then choke assembling their table.  The sweep/json
    # accounting below must survive that, so the driver is guarded and
    # the error carried into the payload instead of aborting the CLI.
    error: Optional[str] = None
    try:
        if name == "fig2":
            from repro.experiments.fig2_batch_interval import run_fig2

            kwargs = {"workload": args.workload} if args.workload else {}
            print(run_fig2(seed=args.seed, runner=runner,
                           count_only=args.count_only,
                           fidelity=args.fidelity, **kwargs).to_table())
        elif name == "fig3":
            from repro.experiments.fig3_executors import run_fig3

            kwargs = {"workload": args.workload} if args.workload else {}
            print(run_fig3(seed=args.seed, runner=runner,
                           count_only=args.count_only,
                           fidelity=args.fidelity, **kwargs).to_table())
        elif name == "fig5":
            from repro.experiments.fig5_rates import run_fig5

            print(run_fig5(seed=args.seed, runner=runner).to_table())
        elif name == "fig7":
            from repro.experiments.fig6_evolution import PAPER_WORKLOADS
            from repro.experiments.fig7_improvement import run_fig7

            workloads = [args.workload] if args.workload else PAPER_WORKLOADS
            print(run_fig7(repeats=args.repeats, rounds=args.rounds,
                           base_seed=args.seed, workloads=workloads,
                           runner=runner, count_only=args.count_only,
                           fidelity=args.fidelity).to_table())
        elif name == "fig8":
            from repro.experiments.fig6_evolution import PAPER_WORKLOADS
            from repro.experiments.fig8_spsa_vs_bo import run_fig8

            workloads = [args.workload] if args.workload else PAPER_WORKLOADS
            print(run_fig8(repeats=args.repeats, rounds=args.rounds,
                           base_seed=args.seed, workloads=workloads,
                           runner=runner, count_only=args.count_only,
                           fidelity=args.fidelity).to_table())
        else:
            print(
                f"unknown sweep {args.name!r}; "
                "expected fig2/fig3/fig5/fig7/fig8",
                file=sys.stderr,
            )
            return 2
    except Exception as exc:  # noqa: BLE001 - reported in payload/stderr
        error = f"{type(exc).__name__}: {exc}"
        print(f"sweep driver failed: {error}", file=sys.stderr)

    t = runner.totals
    print(
        f"\nsweep: {t.cells} cells | {t.cache_hits} cache hits, "
        f"{t.executed} executed ({t.batches_executed} batches simulated), "
        f"{t.failed} failed | "
        f"{t.workers} worker(s), {t.wall_seconds:.2f}s wall | "
        f"cache: {cache_dir}",
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
    if args.json:
        payload = {
            "sweep": name,
            "status": "error" if error else ("failed" if t.failed else "ok"),
            "error": error,
            "cells": t.cells,
            "cacheHits": t.cache_hits,
            "cacheMisses": t.cache_misses,
            "executed": t.executed,
            "failed": t.failed,
            "retries": t.retries,
            "timeouts": t.timeouts,
            "poolRebuilds": t.pool_rebuilds,
            "journalReplayed": t.journal_replayed,
            "cacheSelfHealed": t.cache_self_healed,
            "batchesExecuted": t.batches_executed,
            "workers": t.workers,
            "wallSeconds": t.wall_seconds,
            "cacheDir": str(cache_dir),
            "journal": str(journal_path) if journal_path else None,
            "versionTag": cache.version_tag,
            "cellFailures": runner.failures,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"sweep stats written to {args.json}", file=sys.stderr)
    if (t.failed or error) and args.strict:
        return 1
    return 0


def _cmd_tournament(args) -> int:
    """Rank every registered tuner across scenario shapes."""
    import json as _json
    from pathlib import Path

    from repro.runner import (
        ResultCache,
        RetryPolicy,
        SweepJournal,
        SweepRunner,
        default_cache_dir,
    )
    from repro.runner.spec import SweepSpec
    from repro.tuners import (
        build_leaderboard,
        render_leaderboard,
        scenario_names,
        tuner_names,
    )

    roster = (
        [t.strip() for t in args.tuners.split(",") if t.strip()]
        if args.tuners
        else tuner_names()
    )
    unknown = sorted(set(roster) - set(tuner_names()))
    if unknown:
        print(f"unknown tuner(s) {unknown}; registered: {tuner_names()}",
              file=sys.stderr)
        return 2
    scenarios = (
        [s.strip() for s in args.scenarios.split(",") if s.strip()]
        if args.scenarios
        else ["steady", "step", "spike"]
    )
    bad = sorted(set(scenarios) - set(scenario_names()))
    if bad:
        print(f"unknown scenario(s) {bad}; expected {scenario_names()}",
              file=sys.stderr)
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
    import os as _os

    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    journal = SweepJournal(Path(args.journal)) if args.journal else None
    workers = args.workers if args.workers else (_os.cpu_count() or 1)
    runner = SweepRunner(
        workers=workers,
        cache=ResultCache(cache_dir),
        use_cache=not args.no_cache,
        journal=journal,
        retry=RetryPolicy(max_retries=args.retries),
    )
    sweep = runner.run(spec)
    payload = build_leaderboard(
        sweep.results,
        budget=args.budget,
        slo_delay=args.slo,
        fidelity=args.fidelity,
    )
    print(render_leaderboard(payload))
    t = runner.totals
    print(
        f"\ntournament: {t.cells} cells | {t.cache_hits} cache hits, "
        f"{t.executed} executed ({t.batches_executed} batches simulated), "
        f"{t.failed} failed | {t.workers} worker(s), "
        f"{t.wall_seconds:.2f}s wall",
        file=sys.stderr,
    )
    for failure in runner.failures:
        print(
            f"  cell {failure.get('cellIndex')}: {failure.get('error')}",
            file=sys.stderr,
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"leaderboard written to {args.json}", file=sys.stderr)
    return 1 if (t.failed and args.strict) else 0


def _cmd_compare(args) -> int:
    from repro.experiments.common import (
        build_experiment,
        make_controller,
        run_search,
    )

    rows = []

    setup = build_experiment(args.workload, seed=args.seed)
    controller = make_controller(setup, seed=args.seed)
    report = controller.run(args.rounds)
    best = controller.pause_rule.best_config()
    rows.append(("SPSA (NoStop)", f"{best.end_to_end_delay:.2f}",
                 report.adjust_calls_to_pause or controller.adjust.calls,
                 "yes" if report.first_pause_round else "no"))

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
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.json}")
    if args.strict and not report.ok:
        return 1
    return 0


def _cmd_lint(args) -> int:
    import json as _json

    from repro.check.lint import lint_paths

    paths = args.paths
    if not paths:
        from pathlib import Path

        import repro

        paths = [str(Path(repro.__file__).parent)]
    findings = lint_paths(paths)
    for f in findings:
        print(f.format())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(
                [f.to_dict() for f in findings], fh, indent=2, sort_keys=True
            )
        print(f"wrote {args.json}")
    if findings:
        print(f"{len(findings)} determinism finding(s)")
        return 1
    print("determinism lint clean")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NoStop reproduction (ICPP 2021) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workloads", help="list workloads and rate bands")
    p.set_defaults(func=_cmd_workloads)

    p = sub.add_parser("run", help="run NoStop on a workload")
    p.add_argument("--workload", default="wordcount", choices=sorted(WORKLOADS))
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-out", default=None,
                   help="write the run trajectory as JSON")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("trace", help="NoStop run with batch tracing on")
    p.add_argument("--workload", default="wordcount", choices=sorted(WORKLOADS))
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--last", type=int, default=3,
                   help="how many trailing batch traces to print")
    p.add_argument("--tasks", action="store_true",
                   help="emit per-task spans too (verbose)")
    p.add_argument("--out", default=None, help="write all spans as JSONL")
    p.add_argument("--audit-out", default=None,
                   help="write the SPSA audit trail as JSONL")
    p.add_argument("--chrome", default=None,
                   help="write a Chrome Trace Event JSON file "
                        "(open in Perfetto / chrome://tracing)")
    p.add_argument("--folded", default=None,
                   help="write folded stacks for flamegraph.pl / speedscope")
    p.add_argument("--critical", action="store_true",
                   help="print the critical-path delay decomposition and "
                        "cross-check it against the steady-state oracle")
    p.add_argument("--sample", type=int, default=1,
                   help="head-sample 1/N of batch traces (deterministic; "
                        "tail retention still keeps interesting traces)")
    p.add_argument("--no-retain", action="store_true",
                   help="disable tail-based retention of interesting traces")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="metrics snapshot of a NoStop run, or the generated catalog",
    )
    p.add_argument("action", nargs="?", default="snapshot",
                   choices=["snapshot", "catalog"],
                   help="snapshot: instrumented run + registry dump; "
                        "catalog: the declarative metric catalog docs")
    p.add_argument("--workload", default="wordcount", choices=sorted(WORKLOADS))
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["prom", "summary"], default="summary")
    p.add_argument("--json", action="store_true",
                   help="snapshot as JSON events (sorted keys, one object "
                        "per sample) instead of text")
    p.add_argument("--filter", default=None, metavar="PREFIX",
                   help="restrict the snapshot to metric names starting "
                        "with PREFIX; exits 2 when nothing matches")
    p.add_argument("--out", default=None, help="also write the snapshot here")
    p.add_argument("--events-out", default=None, metavar="JSONL",
                   help="ship per-batch events and the final registry "
                        "snapshot through the batched emission pipeline "
                        "into this JSONL file")
    p.add_argument("--check", action="store_true",
                   help="catalog: verify the checked-in docs match the "
                        "declarations (exit 1 on drift)")
    p.add_argument("--write", action="store_true",
                   help="catalog: regenerate docs/METRICS.md and "
                        "docs/metrics.json")
    p.add_argument("--docs-dir", default="docs",
                   help="catalog: directory holding the generated docs")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "report",
        help="judged chaos run: SLOs, alerts, anomalies, hotspots, MTTR",
    )
    p.add_argument("--workload", default="wordcount", choices=sorted(WORKLOADS))
    p.add_argument("--rounds", type=int, default=40)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--rate-shift-at", type=float, default=600.0,
                   help="simulated time of the scripted §5.5 rate shift")
    p.add_argument("--rate-shift-multiplier", type=float, default=0.25)
    p.add_argument("--html", default=None,
                   help="write a self-contained single-file HTML report here")
    p.add_argument("--json", default=None, help="write the report as JSON")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("figure", help="regenerate one paper figure/table")
    p.add_argument("name", help="table2 | fig2 | fig3 | fig5 | fig6 | fig7 | fig8")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=3,
                   help="repeats for fig7/fig8 (paper uses 5)")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser(
        "sweep",
        help="run a figure sweep via the parallel, cached sweep runner",
    )
    p.add_argument("name", nargs="?", default=None,
                   help="fig2 | fig3 | fig5 | fig7 | fig8")
    p.add_argument("--workload", default=None, choices=sorted(WORKLOADS),
                   help="restrict fig2/fig3/fig7/fig8 to one workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=3,
                   help="repeats for fig7/fig8 (paper uses 5)")
    p.add_argument("--rounds", type=int, default=40,
                   help="NoStop rounds for fig7/fig8")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: all CPU cores; "
                        "results identical at any count)")
    p.add_argument("--fidelity", default="exact",
                   choices=["exact", "vectorized", "fluid"],
                   help="simulation tier: exact per-task DES (default), "
                        "the numpy-vectorized batch engine, or the "
                        "analytic fluid model (fig5 is rate-only and "
                        "tier-independent)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore cached results (fresh results still stored)")
    p.add_argument("--clear-cache", action="store_true",
                   help="delete every cached cell before running")
    p.add_argument("--cache-dir", default=None,
                   help="cache root (default: $REPRO_SWEEP_CACHE or "
                        "~/.cache/repro/sweeps)")
    p.add_argument("--count-only", action="store_true",
                   help="segment-per-rate-span datagen fast path "
                        "(deterministic, but not byte-identical to the "
                        "default per-tick path)")
    p.add_argument("--json", default=None,
                   help="write sweep/cache accounting as JSON (always a "
                        "valid document, even when cells fail)")
    p.add_argument("--journal", default=None,
                   help="write-ahead journal (JSONL) recording every "
                        "completed cell for crash-safe resume")
    p.add_argument("--resume", default=None, metavar="JOURNAL",
                   help="resume an interrupted sweep from its journal "
                        "(implies --journal JOURNAL)")
    p.add_argument("--retries", type=int, default=2,
                   help="retries per failing cell before it becomes a "
                        "structured CellFailure result")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-cell timeout in seconds (forces pooled "
                        "execution so hung cells can be terminated)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 if any cell failed (default: degrade "
                        "gracefully and exit 0)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "tournament",
        help="rank every registered tuner across scenario shapes on the "
             "parallel sweep runner",
    )
    p.add_argument("--tuners", default=None,
                   help="comma list of tuner names (default: all registered)")
    p.add_argument("--scenarios", default=None,
                   help="comma list of scenario shapes "
                        "(default: steady,step,spike; also: sine)")
    p.add_argument("--workload", default="wordcount",
                   choices=sorted(WORKLOADS))
    p.add_argument("--budget", type=int, default=30,
                   help="objective evaluations per tuner run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=1,
                   help="seeds per (tuner, scenario) cell, spaced by 100")
    p.add_argument("--fidelity", default="vectorized",
                   choices=["exact", "vectorized", "fluid"],
                   help="simulation tier (default: the oracle-validated "
                        "vectorized engine)")
    p.add_argument("--slo", type=float, default=30.0,
                   help="end-to-end delay SLO in seconds")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: all CPU cores)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore cached cell results")
    p.add_argument("--cache-dir", default=None,
                   help="cache root (default: $REPRO_SWEEP_CACHE or "
                        "~/.cache/repro/sweeps)")
    p.add_argument("--journal", default=None,
                   help="write-ahead journal (JSONL) for crash-safe resume")
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--json", default=None,
                   help="write the leaderboard as sorted-key JSON "
                        "(byte-identical at a fixed seed)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 if any cell failed")
    p.set_defaults(func=_cmd_tournament)

    p = sub.add_parser("compare", help="compare optimizers on one workload")
    p.add_argument("--workload", default="linear_regression",
                   choices=sorted(WORKLOADS))
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "check",
        help="run a target with runtime invariants attached and compare "
             "against the analytic oracles",
    )
    p.add_argument("target", nargs="?", default="quickstart",
                   choices=["quickstart", "fig7", "chaos"])
    p.add_argument("--workload", default=None, choices=sorted(WORKLOADS),
                   help="override the target's default workload")
    p.add_argument("--seed", type=int, default=None,
                   help="override the target's default seed")
    p.add_argument("--batches", type=int, default=30,
                   help="batches for fixed-configuration targets")
    p.add_argument("--rounds", type=int, default=40,
                   help="optimizer rounds for fig7/chaos targets")
    p.add_argument("--warmup", type=int, default=5,
                   help="batches excluded from oracle comparison")
    p.add_argument("--metamorphic", action="store_true",
                   help="also run the time-dilation twin and the "
                        "executor-homogeneity identity")
    p.add_argument("--fidelity", default="exact",
                   choices=["exact", "vectorized", "fluid"],
                   help="simulation tier to check (chaos requires exact)")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on any violation or oracle failure")
    p.add_argument("--json", default=None,
                   help="write the full check report as JSON")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "dash",
        help="generate the Grafana dashboard JSON from the metric catalog",
    )
    p.add_argument("--out", default=None,
                   help="write the dashboard here (default: stdout)")
    p.add_argument("--title", default="NoStop repro telemetry")
    p.set_defaults(func=_cmd_dash)

    p = sub.add_parser(
        "lint",
        help="determinism linter: unseeded RNGs, wall-clock reads, "
             "unordered iteration",
    )
    p.add_argument("paths", nargs="*", default=None,
                   help="files or directories (default: the installed "
                        "repro package source)")
    p.add_argument("--json", default=None,
                   help="write findings as JSON")
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

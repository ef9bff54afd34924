"""Sweep cell kinds.

A *cell kind* is a named, pure function ``params -> JSON dict``: it
builds a fresh deployment from its parameters, runs it, and returns
plain data.  Purity is the contract that makes the sweep runner correct
— because a cell's result depends only on its parameter dict, executing
cells across processes is bit-identical to executing them sequentially,
and results can be cached content-addressed on the parameters alone.

The built-in kinds cover every figure driver and ablation benchmark:

* ``fixed_config`` — steady-state metrics of one fixed configuration
  (Figs. 2, 3, and the Fig. 7 measurement stage);
* ``nostop`` — one NoStop optimization run with the Fig. 7/8
  measurements and optional gain/collector-window overrides (the
  ablation benchmarks ride on these);
* ``bo`` — one Bayesian-optimization baseline run (Fig. 8);
* ``tournament`` — one (tuner, scenario, seed) leaderboard run of the
  optimizer tournament;
* ``rate_series`` — sampled input-rate trace (Fig. 5).

Every simulation-backed result carries ``batchesExecuted`` — the number
of micro-batches the cell actually simulated — so cache-hit claims are
verifiable: a fully cached sweep reports zero batches executed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

CellFn = Callable[[Dict[str, Any]], Dict[str, Any]]

_REGISTRY: Dict[str, CellFn] = {}


def register_cell(kind: str) -> Callable[[CellFn], CellFn]:
    """Register a cell kind; kinds are global and must be unique."""

    def wrap(fn: CellFn) -> CellFn:
        if kind in _REGISTRY:
            raise ValueError(f"cell kind {kind!r} already registered")
        _REGISTRY[kind] = fn
        return fn

    return wrap


def cell_kinds() -> List[str]:
    return sorted(_REGISTRY)


def execute_cell(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell; the module-level entry point worker processes use."""
    try:
        fn = _REGISTRY[kind]
    except KeyError:
        raise KeyError(
            f"unknown cell kind {kind!r}; expected one of {cell_kinds()}"
        ) from None
    return fn(dict(params))


def _pop(params: Dict[str, Any], key: str, default: Any) -> Any:
    value = params.pop(key, default)
    return default if value is None else value


def _delay_series(setup) -> List[float]:
    return [b.end_to_end_delay for b in setup.context.listener.metrics.batches]


@register_cell("fixed_config")
def _fixed_config_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """Steady-state run of one fixed (interval, executors) point."""
    from repro.baselines.fixed import run_fixed_configuration
    from repro.experiments.common import build_experiment

    workload = params.pop("workload")
    seed = int(params.pop("seed"))
    interval = float(params.pop("batch_interval"))
    executors = int(params.pop("num_executors"))
    batches = int(_pop(params, "batches", 40))
    warmup = int(_pop(params, "warmup", 5))
    max_executors = int(_pop(params, "max_executors", 20))
    count_only = bool(_pop(params, "count_only", False))
    fidelity = str(_pop(params, "fidelity", "exact"))
    if params:
        raise TypeError(f"fixed_config: unknown params {sorted(params)}")

    setup = build_experiment(
        workload,
        seed=seed,
        batch_interval=interval,
        num_executors=executors,
        max_executors=max_executors,
        count_only=count_only,
        fidelity=fidelity,
    )
    run = run_fixed_configuration(setup.context, batches=batches, warmup=warmup)
    return {
        "workload": workload,
        "batchInterval": interval,
        "numExecutors": executors,
        "meanEndToEndDelay": run.mean_end_to_end_delay,
        "meanProcessingTime": run.mean_processing_time,
        "meanSchedulingDelay": run.mean_scheduling_delay,
        "unstableFraction": run.unstable_fraction,
        "p50EndToEndDelay": run.p50_end_to_end_delay,
        "p95EndToEndDelay": run.p95_end_to_end_delay,
        "p99EndToEndDelay": run.p99_end_to_end_delay,
        "batches": run.batches,
        "delaySeries": _delay_series(setup),
        "batchesExecuted": len(setup.context.listener.metrics),
    }


def _resolve_gains(spec: Any, scaler, rounds: int):
    """Turn a JSON gains spec into a GainSchedule (None = paper gains)."""
    from repro.core.gains import GainSchedule

    if spec is None:
        return None
    if isinstance(spec, dict) and "suggest" in spec:
        from repro.core.tuning import suggest_gains

        opts = dict(spec["suggest"] or {})
        return suggest_gains(
            scaler.scaled,
            expected_iterations=int(opts.pop("expected_iterations", rounds)),
            **opts,
        )
    if isinstance(spec, dict):
        return GainSchedule(**spec)
    raise TypeError(f"gains spec must be a dict or None, got {spec!r}")


@register_cell("nostop")
def _nostop_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One NoStop run reporting the Fig. 7 and Fig. 8 measurements."""
    from repro.core.metrics_collector import MetricsCollector
    from repro.experiments.common import build_experiment, make_controller

    workload = params.pop("workload")
    seed = int(params.pop("seed"))
    rounds = int(_pop(params, "rounds", 40))
    gains_spec = params.pop("gains", None)
    collector_window = params.pop("collector_window", None)
    collector_max_window = params.pop("collector_max_window", None)
    count_only = bool(_pop(params, "count_only", False))
    fidelity = str(_pop(params, "fidelity", "exact"))
    if params:
        raise TypeError(f"nostop: unknown params {sorted(params)}")

    setup = build_experiment(
        workload, seed=seed, count_only=count_only, fidelity=fidelity
    )
    gains = _resolve_gains(gains_spec, setup.scaler, rounds)
    controller = make_controller(setup, seed=seed, gains=gains)
    if collector_window is not None:
        window = int(collector_window)
        max_window = (
            int(collector_max_window)
            if collector_max_window is not None
            else max(12, window)
        )
        controller.collector = MetricsCollector(
            window=window, max_window=max_window
        )
        controller.adjust.collector = controller.collector
    start_time = setup.system.time
    report = controller.run(rounds)
    converged = report.first_pause_round is not None
    search_time = (
        report.first_pause_time
        if converged
        else setup.system.time - start_time
    )
    config_steps = (
        report.adjust_calls_to_pause if converged else controller.adjust.calls
    )
    best = controller.pause_rule.best_config()
    return {
        "workload": workload,
        "rounds": rounds,
        "finalInterval": report.final_interval,
        "finalExecutors": report.final_executors,
        "configChanges": report.config_changes,
        "resets": report.resets,
        "converged": converged,
        "firstPauseRound": report.first_pause_round,
        "searchTime": float(search_time),
        "configSteps": int(config_steps),
        "best": {
            "batchInterval": best.batch_interval,
            "numExecutors": best.num_executors,
            "endToEndDelay": best.end_to_end_delay,
            "meanProcessingTime": best.mean_processing_time,
            "objective": best.objective,
            "stable": best.stable,
        },
        "simTime": setup.system.time - start_time,
        "delaySeries": _delay_series(setup),
        "batchesExecuted": len(setup.context.listener.metrics),
    }


@register_cell("bo")
def _bo_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One Bayesian-optimization baseline run (Fig. 8 comparison).

    BO runs through the shared tuner loop, then re-measures a singleton
    winner exactly as NoStop does, so its reported optimum is not one
    lucky measurement window.  Search time includes the confirmation.
    """
    from repro.experiments.common import build_experiment, run_search

    workload = params.pop("workload")
    seed = int(params.pop("seed"))
    max_evaluations = int(_pop(params, "max_evaluations", 80))
    count_only = bool(_pop(params, "count_only", False))
    fidelity = str(_pop(params, "fidelity", "exact"))
    if params:
        raise TypeError(f"bo: unknown params {sorted(params)}")

    setup = build_experiment(
        workload, seed=seed, count_only=count_only, fidelity=fidelity
    )
    report = run_search(
        setup, "bo", seed=seed, max_evaluations=max_evaluations, confirm=True
    )
    return {
        "workload": workload,
        "finalDelay": report.best_delay,
        "searchTime": float(report.search_time),
        "configSteps": report.evaluations,
        "converged": report.converged,
        "batchesExecuted": len(setup.context.listener.metrics),
    }


@register_cell("fault_probe")
def _fault_probe_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """Synthetic failure cell exercising the supervisor.

    Not a simulation — a controllable fault source for supervisor,
    journal, and CI recovery tests.  Modes:

    * ``ok`` — succeed immediately;
    * ``crash`` — raise (a retryable, then poisoned, crash);
    * ``hang`` — sleep ``hang_seconds`` (trips the per-cell timeout);
    * ``kill`` — hard-exit the worker process (the BrokenProcessPool /
      OOM-kill condition);
    * ``flaky`` — fail the first ``fail_times`` attempts, tracked in a
      counter file under ``state_dir``, then succeed (exercises retry
      recovery).

    ``flaky`` reads filesystem state, so fault_probe results are
    impure: every result carries ``noCache`` and the runner never
    caches them.
    """
    import time as _time

    mode = str(_pop(params, "mode", "ok"))
    tag = str(_pop(params, "tag", "probe"))
    hang_seconds = float(_pop(params, "hang_seconds", 30.0))
    fail_times = int(_pop(params, "fail_times", 1))
    state_dir = params.pop("state_dir", None)
    if params:
        raise TypeError(f"fault_probe: unknown params {sorted(params)}")

    if mode == "crash":
        raise RuntimeError(f"fault_probe[{tag}]: injected crash")
    if mode == "hang":
        _time.sleep(hang_seconds)
    elif mode == "kill":
        import os as _os

        _os._exit(137)
    elif mode == "flaky":
        if state_dir is None:
            raise TypeError("fault_probe: flaky mode needs state_dir")
        from pathlib import Path as _Path

        counter = _Path(state_dir) / f"flaky_{tag}.count"
        seen = int(counter.read_text()) if counter.exists() else 0
        if seen < fail_times:
            counter.parent.mkdir(parents=True, exist_ok=True)
            counter.write_text(str(seen + 1))
            raise RuntimeError(
                f"fault_probe[{tag}]: flaky failure {seen + 1}/{fail_times}"
            )
    elif mode != "ok":
        raise TypeError(f"fault_probe: unknown mode {mode!r}")
    return {
        "mode": mode,
        "tag": tag,
        "batchesExecuted": 0,
        "noCache": True,
    }


@register_cell("tournament")
def _tournament_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One (tuner, scenario, seed) run of the optimizer tournament.

    Builds the scenario's rate trace, runs one registered tuner through
    the shared :func:`~repro.tuners.base.run_tuner` loop over the
    four-axis configuration space, and reports the scored leaderboard
    row.  Defaults to the vectorized fidelity tier — a tournament is a
    fleet of optimization runs, and the fast tier is oracle-validated
    against the exact DES.
    """
    from repro.experiments.common import build_experiment
    from repro.tuners import make_tuner, run_tuner
    from repro.tuners.tournament import scenario_trace, tournament_space

    tuner_name = str(params.pop("tuner"))
    seed = int(params.pop("seed"))
    workload = str(_pop(params, "workload", "wordcount"))
    scenario = str(_pop(params, "scenario", "steady"))
    budget = int(_pop(params, "budget", 30))
    fidelity = str(_pop(params, "fidelity", "vectorized"))
    slo_delay = float(_pop(params, "slo_delay", 30.0))
    options = dict(_pop(params, "tuner_options", {}))
    if params:
        raise TypeError(f"tournament: unknown params {sorted(params)}")

    trace = scenario_trace(scenario, workload)
    setup = build_experiment(
        workload, seed=seed, rate_trace=trace, fidelity=fidelity
    )
    space = tournament_space()
    tuner = make_tuner(tuner_name, space, seed=seed, **options)
    report = run_tuner(
        tuner,
        setup.system,
        space,
        max_evaluations=budget,
        slo_delay=slo_delay,
    )
    result = report.to_dict()
    result.update({
        "workload": workload,
        "scenario": scenario,
        "budget": budget,
        "fidelity": fidelity,
        "sloDelaySeconds": slo_delay,
        "batchesExecuted": len(setup.context.listener.metrics),
    })
    return result


@register_cell("rate_series")
def _rate_series_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """Sample one workload's paper rate trace (Fig. 5)."""
    import numpy as np

    from repro.datagen.rates import PAPER_RATE_BANDS, RATE_BAND_ALIASES, paper_rate_trace

    workload = params.pop("workload")
    seed = int(params.pop("seed"))
    duration = float(_pop(params, "duration", 600.0))
    dt = float(_pop(params, "dt", 5.0))
    if params:
        raise TypeError(f"rate_series: unknown params {sorted(params)}")
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")

    trace = paper_rate_trace(workload, seed=seed)
    band = PAPER_RATE_BANDS[RATE_BAND_ALIASES.get(workload, workload)]
    times = [float(t) for t in np.arange(0.0, duration, dt)]
    return {
        "workload": workload,
        "band": list(band),
        "times": times,
        "rates": [trace.rate(t) for t in times],
        "batchesExecuted": 0,
    }

"""Golden digests of the tuning entry points.

Each case pins the SHA-256 of one entry point's output, serialized as
canonical JSON (``sort_keys=True``), at a fixed seed and a small
budget.  Run-twice checks only prove determinism; a digest also catches
a change that is deterministic but different.

The rule: a refactor leaves every digest unchanged.  A deliberate
behaviour change updates the affected digests and says why in
CHANGES.md.  Print the current digests with::

    PYTHONPATH=src python tests/golden/test_tuning_goldens.py
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.datagen.rates import (
    ConstantRate,
    SineRate,
    SpikeRate,
    StepRate,
    TraceRate,
    paper_rate_trace,
)
from repro.runner.cells import execute_cell

TOURNAMENT_TUNERS = (
    "annealing", "bo", "grid", "nostop", "random", "rl", "safe-online",
)
TOURNAMENT_SCENARIOS = ("steady", "step", "spike", "sine")
COMPARE_ROWS = ("SPSA (NoStop)", "Bayesian opt", "Simulated annealing")


def digest(obj: Any) -> str:
    """SHA-256 of canonical JSON."""
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _bo_cell(workload: str, seed: int) -> Callable[[], Any]:
    return lambda: execute_cell("bo", {
        "workload": workload, "seed": seed,
        "count_only": True, "max_evaluations": 30,
    })


def _tournament_cell(scenario: str, tuner: str) -> Callable[[], Any]:
    return lambda: execute_cell("tournament", {
        "tuner": tuner, "seed": 0, "scenario": scenario, "budget": 8,
    })


def _generic_traces() -> Dict[str, Any]:
    """The traces without a closed-form ``records_between``."""
    return {
        "step": StepRate(((0.0, 110_000.0), (600.0, 190_000.0))),
        "spike": SpikeRate(
            ConstantRate(150_000.0), spikes=((400.0, 700.0, 1.8),)
        ),
        "sine": SineRate(150_000.0, 37_500.0, 300.0),
        "trace": TraceRate([9_000.0, 12_500.0, 7_250.0, 11_000.0], dt=0.7),
    }


def _records_table() -> Any:
    """``records_between`` of the generic-integration traces.

    Intervals are not multiples of the 0.25 s integration cell and
    straddle the step (600 s) and spike (400 s, 700 s) edges; the last
    rows are a prefetch-style block ``t0 + i * interval``.
    """
    traces = _generic_traces()
    intervals = [
        (0.0, 7.3), (12.345, 19.01), (3.0, 3.1), (1.0, 1.0),
        (595.1, 602.4), (592.9, 600.05), (599.9, 600.1),
        (398.3, 401.7), (399.99, 400.2), (699.2, 703.33), (650.0, 712.6),
    ]
    intervals += [(0.3 + i * 2.7, 0.3 + (i + 1) * 2.7) for i in range(300)]
    return {
        name: [trace.records_between(a, b) for a, b in intervals]
        for name, trace in traces.items()
    }


def _records_ticks() -> Any:
    """``records_between`` over production ticks and tick remainders.

    Widths of 1 s and the sub-tick remainders 0.3 s, 1 ms and 1.75 s
    (1 to 7 integration cells), starting on and off the 0.25 s grid
    around the step, spike and trace edges, the chaos report's rate
    shift at 600 s and its 10 s hold edges; then a run of 1 s ticks
    accumulated in floats across the shift.  The chaos trace is the
    one ``judged_chaos_run`` builds at its default seed.
    """
    traces = _generic_traces()
    traces["chaos"] = SpikeRate(
        paper_rate_trace("wordcount", seed=7),
        spikes=((600.0, math.inf, 0.25),),
    )
    offsets = (-1.75, -1.0, -0.3, -0.2, -1e-3, 0.0, 0.1, 0.25, 0.37)
    starts = sorted({
        anchor + offset
        for anchor in (0.0, 10.0, 20.0, 400.0, 590.0, 600.0, 610.0, 700.0)
        for offset in offsets
        if anchor + offset >= 0.0
    })
    intervals = [
        (a, a + width) for a in starts for width in (1.0, 0.3, 1e-3, 1.75)
    ]
    t = 585.3
    for _ in range(30):
        intervals.append((t, t + 1.0))
        t += 1.0
    return {
        name: [trace.records_between(a, b) for a, b in intervals]
        for name, trace in traces.items()
    }


def _nostop_cell() -> Any:
    return execute_cell("nostop", {
        "workload": "wordcount", "seed": 0, "rounds": 10,
        "count_only": True,
    })


def _report_data(report_json: str) -> str:
    """A run report's data: its JSON without the top-level ``profile``
    key, re-serialized the way ``RunReport.to_json`` writes it.

    The digest then pins what the report says, whether or not the
    report still carries the span profile.
    """
    data = json.loads(report_json)
    data.pop("profile", None)
    return json.dumps(data, sort_keys=True, indent=2)


def _chaos_report() -> Any:
    from repro.experiments.common import judged_chaos_run

    return _report_data(
        judged_chaos_run("wordcount", rounds=10).report.to_json()
    )


@functools.lru_cache(maxsize=None)
def _chaos_report_40():
    """The 40-round judged run ``repro report`` makes, run once."""
    from repro.experiments.common import judged_chaos_run

    return judged_chaos_run("wordcount", rounds=40).report


def _chaos_rendering(render: str) -> Callable[[], Any]:
    return lambda: getattr(_chaos_report_40(), render)()


@functools.lru_cache(maxsize=None)
def _cli_run(argv: Tuple[str, ...], files: Tuple[str, ...] = ()) -> Dict:
    """``repro <argv>``, run once: the exit status, the text printed,
    and the text of each of ``files``.  ``{tmp}`` in ``argv`` names a
    fresh temporary directory (a cache, say); ``files`` are read from
    it."""
    import tempfile
    from pathlib import Path

    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        args = [a.replace("{tmp}", tmp) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = main(args)
        stdout = out.getvalue().replace(tmp, "{tmp}")
        result = {"status": status, "stdout": stdout}
        for name in files:
            result[name] = (Path(tmp) / name).read_text(encoding="utf-8")
        return result


def _cli_json(
    *argv: str, stdout: bool = True, data: Callable[[str], str] = str
) -> Callable[[], Any]:
    """``repro <argv> --json FILE``: the exit status, ``data`` of the
    file written and, when ``stdout`` is set, the text printed."""

    def run() -> Any:
        ran = _cli_run((*argv, "--json", "{tmp}/out.json"), ("out.json",))
        result = {"status": ran["status"], "json": data(ran["out.json"])}
        if stdout:
            result["stdout"] = ran["stdout"]
        return result

    return run


def _cli_stdout(*argv: str) -> Callable[[], Any]:
    """The text ``repro <argv>`` prints; the run must exit 0."""

    def run() -> Any:
        ran = _cli_run(argv)
        assert ran["status"] == 0
        return ran["stdout"]

    return run


def _cli_options() -> Any:
    """Every subcommand, in order, with its help and each argument's
    option strings, destination, default, choices, nargs and whether it
    is required: the settable surface of the CLI."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    helps = {a.dest: a.help for a in sub._choices_actions}
    return [
        {
            "command": name,
            "help": helps[name],
            "options": [
                {
                    "flags": a.option_strings, "dest": a.dest,
                    "default": a.default, "nargs": a.nargs,
                    "choices": None if a.choices is None else list(a.choices),
                    "required": a.required,
                }
                for a in command._actions
            ],
        }
        for name, command in sub.choices.items()
    ]


def _sweep_stats(text: str) -> Any:
    """``repro sweep --json`` without the fields that name the host: the
    wall time, the cache and journal paths and the source version tag."""
    data = json.loads(text)
    for key in ("wallSeconds", "cacheDir", "journal", "versionTag"):
        del data[key]
    return data


#: ``repro trace`` as CI runs it: sampled, so tail retention is on.
TRACE_ARGS = ("trace", "--rounds", "8", "--seed", "3", "--sample", "4")


def _trace_export(name: str) -> Callable[[], Any]:
    """One export file of a ``repro trace`` run that writes both."""
    argv = (*TRACE_ARGS, "--chrome", "{tmp}/trace.json",
            "--folded", "{tmp}/trace.folded")
    return lambda: _cli_run(argv, ("trace.json", "trace.folded"))[name]


@functools.lru_cache(maxsize=None)
def _compare_table() -> Dict[str, list]:
    """``repro compare --rounds 10``, run once, rows split into cells."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["compare", "--rounds", "10"]) == 0
    rows = {}
    for line in out.getvalue().splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) == 4:
            rows[cells[0]] = cells
    return rows


def _full_catalog() -> Any:
    """Every cataloged metric on one live registry, rendered three ways.

    Each metric gets deterministic values; each labeled family gets two
    children, and the first family with a budget of two also gets one
    label set rejected over budget.  The Prometheus text must validate.
    """
    from repro.obs import (
        MetricsRegistry,
        catalog,
        metric_events,
        prometheus_text,
        render_metrics_summary,
    )
    from tests.obs.helpers import validate_prometheus_text

    registry = MetricsRegistry()
    rejected_one = False
    for i, spec in enumerate(sorted(catalog.CATALOG, key=lambda s: s.name)):
        metric = catalog.instrument(registry, spec.name)
        if spec.labels:
            children = [
                metric.labels(**{ln: f"{ln}-{j}" for ln in spec.labels})
                for j in (1, 2)
            ]
            if spec.max_children == 2 and not rejected_one:
                metric.labels(**{ln: "over" for ln in spec.labels}).inc()
                rejected_one = True
        else:
            children = [metric]
        for j, child in enumerate(children, start=1):
            if spec.kind == "counter":
                child.inc(i + j)
            elif spec.kind == "gauge":
                child.set(1.5 * i - j)
            else:
                for value in (0.07 * j, 3.0 * i, 1e7):
                    child.observe(value)
    assert rejected_one
    text = prometheus_text(registry)
    problems = validate_prometheus_text(text)
    assert problems == []
    return {
        "prometheus": text,
        "events": metric_events(registry, time=12.5),
        "summary": render_metrics_summary(registry),
        "problems": problems,
    }


def _compare_row(name: str) -> Callable[[], Any]:
    return lambda: _compare_table()[name]


def _round_records(records) -> list:
    """What each NoStop control round decided."""
    return [
        {
            "round": r.round_index, "phase": r.phase, "k": r.k,
            "rho": r.rho, "theta": [float(v) for v in r.theta_scaled],
            "guarded": r.guarded, "simTime": r.sim_time,
            "interval": r.batch_interval, "executors": r.num_executors,
            "delay": r.mean_delay,
        }
        for r in records
    ]


def _chaos_guarded() -> Any:
    """The hardened chaos run at seed 5.  Its round 2 is guarded (a
    probe came back corrupted), so the pinned ρ, k and θ sequence covers
    a round that skips the SPSA step."""
    from repro.chaos.runner import run_chaos_scenario, standard_chaos_schedule
    from repro.experiments.common import build_experiment
    from repro.obs.tracer import Telemetry

    setup = build_experiment(
        "wordcount", seed=5, telemetry=Telemetry(enabled=True)
    )
    run = run_chaos_scenario(
        setup, standard_chaos_schedule(), rounds=40, seed=5
    )
    return {
        "report": run.report.to_json(),
        "rounds": _round_records(run.nostop.rounds),
        "decisions": [d.to_dict() for d in setup.telemetry.audit.decisions],
    }


def _recovery_summary() -> Any:
    """Cold restart against checkpointed restore: the checkpoint run
    restores once and re-pauses."""
    from repro.experiments.recovery import run_recovery_comparison

    return run_recovery_comparison()["summary"]


def _ablation_penalty() -> Any:
    """NoStop under a fixed ρ = 5, as the penalty ablation runs it."""
    from repro.core.objective import RhoSchedule
    from repro.experiments.common import build_experiment, make_controller

    setup = build_experiment("linear_regression", seed=13)
    controller = make_controller(setup, seed=13)
    controller.tuner.schedule = RhoSchedule(initial=5.0, increment=0.0, cap=5.0)
    return _round_records(controller.run(30).rounds)


def _ablation_perturbation() -> Any:
    """NoStop with segmented-uniform Δ, as the perturbation ablation
    runs it."""
    from repro.core.perturbation import SegmentedUniformPerturbation
    from repro.experiments.common import build_experiment, make_controller

    setup = build_experiment("page_analyze", seed=29)
    controller = make_controller(setup, seed=29)
    controller.tuner.perturbation = SegmentedUniformPerturbation(0.5, 1.5)
    return _round_records(controller.run(30).rounds)


def _ablation_spsa_variants() -> Any:
    """Every row of the SPSA measurement-strategy ablation: its best
    configuration, iterations, measurements and configuration changes."""
    from benchmarks.test_ablation_spsa_variants import run_all

    return {
        name: {
            **row,
            "best": {
                **dataclasses.asdict(row["best"]),
                "theta": [float(v) for v in row["best"].theta],
            },
        }
        for name, row in run_all().items()
    }


CASES: Dict[str, Callable[[], Any]] = {
    **{
        f"bo-cell/{w}/seed{s}": _bo_cell(w, s)
        for w in ("wordcount", "page_analyze") for s in (0, 1)
    },
    "nostop-cell/wordcount/seed0": _nostop_cell,
    **{
        f"tournament/{s}/{t}": _tournament_cell(s, t)
        for s in TOURNAMENT_SCENARIOS for t in TOURNAMENT_TUNERS
    },
    "records-between/table": _records_table,
    "records-between/ticks": _records_ticks,
    "chaos-report/wordcount/rounds10": _chaos_report,
    "chaos-report/wordcount/rounds40/json": (
        lambda: _report_data(_chaos_report_40().to_json())
    ),
    **{
        f"chaos-report/wordcount/rounds40/{fmt}": _chaos_rendering(render)
        for fmt, render in (("text", "render_text"), ("html", "render_html"))
    },
    "cli/report --json": _cli_json("report", stdout=False, data=_report_data),
    "cli/report stdout": lambda: _cli_json("report")()["stdout"],
    "cli/trace chrome": _trace_export("trace.json"),
    "cli/trace folded": _trace_export("trace.folded"),
    # Run without path arguments: the paths would be printed.
    "cli/trace --critical stdout": _cli_stdout(*TRACE_ARGS, "--critical"),
    # `check` prints the path it wrote, so only its file is pinned.
    "cli/check quickstart --json": _cli_json(
        "check", "quickstart", stdout=False
    ),
    "cli/check fig7 --json": _cli_json(
        "check", "fig7", "--rounds", "10", "--fidelity", "vectorized",
        stdout=False,
    ),
    "cli/check chaos --json": _cli_json(
        "check", "chaos", "--rounds", "10", stdout=False
    ),
    "cli/tournament --json": _cli_json(
        "tournament", "--budget", "4", "--workers", "1", "--no-cache",
        "--cache-dir", "{tmp}/cache",
    ),
    "cli/options": _cli_options,
    "cli/workloads stdout": _cli_stdout("workloads"),
    "cli/figure table2 stdout": _cli_stdout("figure", "table2"),
    "cli/figure fig5 stdout": _cli_stdout("figure", "fig5"),
    "cli/run --trace-out": lambda: _cli_run(
        ("run", "--rounds", "6", "--seed", "3",
         "--trace-out", "{tmp}/trace.json"), ("trace.json",),
    ),
    "cli/sweep fig5 --json": _cli_json(
        "sweep", "fig5", "--workers", "1", "--cache-dir", "{tmp}/cache",
        data=_sweep_stats,
    ),
    "cli/metrics --json stdout": _cli_stdout(
        "metrics", "--rounds", "4", "--json"
    ),
    "cli/metrics --format prom stdout": _cli_stdout(
        "metrics", "--rounds", "4", "--format", "prom"
    ),
    "cli/metrics catalog stdout": _cli_stdout("metrics", "catalog"),
    "cli/metrics stdout": _cli_stdout("metrics", "--rounds", "4"),
    "metrics/full-catalog": _full_catalog,
    "cli/dash stdout": _cli_stdout("dash"),
    **{f"compare/{row}": _compare_row(row) for row in COMPARE_ROWS},
    "chaos/guarded/wordcount/seed5": _chaos_guarded,
    "recovery/logistic_regression": _recovery_summary,
    "ablation/penalty/fixed-rho-5": _ablation_penalty,
    "ablation/perturbation/segmented": _ablation_perturbation,
    "ablation/spsa-variants/page_analyze": _ablation_spsa_variants,
}

GOLDEN: Dict[str, str] = {
    "ablation/penalty/fixed-rho-5": "942180c6c6c30cffef399c4fd0e59c386bdfd524e880cf064d62f89da82fc17e",
    "ablation/perturbation/segmented": "321775c006369e7444becddfa8b607893ac45bfadffd8ec92f48e77aec2b89bd",
    "ablation/spsa-variants/page_analyze": "e519e0d5a7950225e455fb1646d3bbcbf1528995fa603556ed379411fd8286e0",
    "bo-cell/page_analyze/seed0": "74526b9f05fca6a2dcf1bc9d3cbea10c041cb581357e865a40cc4a5ff32add3a",
    "bo-cell/page_analyze/seed1": "5c00b78043d45b9ce7d5953a18de8e1de15f4b1b2a4d0744456e824559f1b6d6",
    "bo-cell/wordcount/seed0": "17f2bf0ad1becd0425d05e14c5e3d111a19ff1fa5750cb8097d43adf9b6ae24b",
    "bo-cell/wordcount/seed1": "73983dfebdae0372dd9fd56382d50f44cd5ae767a81b86ed30d93f2e27c1ce4a",
    "chaos-report/wordcount/rounds10": "972a19259f55ab8b1033656201352cbed49199849f5730745ac33295409d3816",
    "chaos-report/wordcount/rounds40/html": "bee51bd2707b2d4ad345164954af40a18866f5be76ef3f04cd155a38a933822e",
    "chaos-report/wordcount/rounds40/json": "9ab3eedd266a8a9fe1725a3d372e2f26c449665c28aa9a2ec11f7cb27dc8e543",
    "chaos-report/wordcount/rounds40/text": "82eb8f13d877ab819b5e3bda840db004fe838909646c41e486c3cff658c7f017",
    "chaos/guarded/wordcount/seed5": "90b48792a911f4866be93ef8ed8f5d8ff2eed0b5086fb0c01265458af9dcba65",
    "cli/check chaos --json": "a824df7e0114dc8387f8cfd418da3db5fe728bb4bea7821368a7f6dcabe9c830",
    "cli/check fig7 --json": "de37c811f0fe53d5e56ac478ea3a0d4d961a09f72bd0a5adebf7be4a21198142",
    "cli/check quickstart --json": "54553e5f4cc52538b4938eb9a7e69b102c329479007c36790974ca1adc36d755",
    "cli/dash stdout": "a49a84a36bd086544b7d45ae835c3783ecd6f8e3744959da3dc791b221c3b47c",
    "cli/figure fig5 stdout": "b6c7b81cd67e96d7e02a406f80c7ed1a9a3219ade9cdc1547db86b58c3f74a61",
    "cli/figure table2 stdout": "634216416dbef926c59988238f92a8169acef2392f2e997cb225e7ba1b13faae",
    "cli/metrics --format prom stdout": "97b6294dec020ab23475324a528d0a5174207158100e7ee24386dd9d4e53f589",
    "cli/metrics --json stdout": "f7fb23e1cb410e2b171c48412d59c387e697aa64938a11657add20e02f30f183",
    "cli/metrics catalog stdout": "3c57079286c27001151473491637ddd0de128e4a52fa70eebdb5abb68ff66a4a",
    "cli/metrics stdout": "ef3153b610f2c64b02e91a546b5b8174a7d9697a731e910f873f0e91ae10f088",
    "cli/options": "e9f612940ee10a7e34f6546d3c1e875adbda855c911f7316f37b30b0e168cd4e",
    "cli/report --json": "425c5a56e66c8411d900b4baba12d68a9f06011a1349afd82008c9cb269e367a",
    "cli/report stdout": "64307ef30f8d0ed0dff953092744d78592460c415d8d8cf7dba7654ea021d66b",
    "cli/run --trace-out": "479ca8d4f561238ae0317c9cdff7152ed9d362b078ba8db61ce172315ebaaae9",
    "cli/sweep fig5 --json": "78a99d6a4bb54c6830eeec857422156a712eece38a91e03b0e81bebc0988a662",
    "cli/tournament --json": "a9f518cfe7fc8225fc5db46a7777b5b53dde20cd37220471bf16d3f4dd0a66cb",
    "cli/trace --critical stdout": "513dfb592a20a5431d3c8ea5937eae4307993998cc33e64ee15b07b015e327bc",
    "cli/trace chrome": "2ec443e28b9f1c698e9e689fafecabb92a3987f913a57b4a1143d4aa4bcd52ec",
    "cli/trace folded": "cc5bf3bbd0046088b4670191904214f861c37ac8444c96f8b4379ccef1b94cc2",
    "cli/workloads stdout": "6d702a6c8e0a72833cd80f79206b888ece0b833c940113f6588612a270427cb1",
    "compare/Bayesian opt": "9e7e5ba410d0b6c3c5a0f8f079b3c5fd45a4793d2306e36682ee2455b528e972",
    "compare/SPSA (NoStop)": "5ccd7cd29b5145be659942b065d11d8e918372858323d64af868162591817230",
    "compare/Simulated annealing": "69ab7c1b5db567780540231b9753db76e70128bc3c2e0800ebce8a31763bd3cc",
    "metrics/full-catalog": "1649787806230d9940935922452b1afe68748986fb8506cd371bbda35932e030",
    "nostop-cell/wordcount/seed0": "b2659be381dc74af37a46d337fe722215cbc578a23d1dc6eef7be1214742a49c",
    "records-between/table": "09b031ee1ef7c6896f3d06a9ec0b497cb957c7013f7a05e3b64b9d7318fbaf54",
    "records-between/ticks": "fbe69b5650e8129b55cc18c35b9814de707542c670aee2a72125d30cfb13b65d",
    "recovery/logistic_regression": "19c0daa93a573b79263d156113a147aeb7b790e26f8f9bad199be239778bbf3e",
    "tournament/sine/annealing": "a22792de4ff3f0b6ecdbdfb60a3b9be825caf44ee50569a72349bb85142bf939",
    "tournament/sine/bo": "816ca7761b68a8f82db12046510c0f9d5ffb34a167877265f30372a9af12c468",
    "tournament/sine/grid": "7da1ce9fc53ee6e561335de54248d928f27014bfb4895f120775629565dc52cf",
    "tournament/sine/nostop": "c8718c320c6892bbc765086a6fb06f50f7873158e9ed73a462daa11f1255110f",
    "tournament/sine/random": "2e13f6095f78baf38701fd1bfb781bd10c97dcee8ce76c3e4d9ba1aeb99d2908",
    "tournament/sine/rl": "3997da06678c0fcf98203f17657eed985c4498a70692e7db63fcb17e26670be2",
    "tournament/sine/safe-online": "278acb7490d1b027f7d1a321dbd363ae9c8c16f20314f49ac7b8c5a6835af194",
    "tournament/spike/annealing": "75e8e9d6690bf1e18ae3fbdeebaf1f9da9f66029c5956f381c0a1cecb5e7ed9e",
    "tournament/spike/bo": "471c241ae78733510ea777eaec61a0efb694b837387bbd00bc5793bf61e3b0cf",
    "tournament/spike/grid": "0db88b33a8bcdeffb262586c8605c6ed4a8756b242ef1971bb42f8fb262dcc99",
    "tournament/spike/nostop": "0a7fdee208a798115e3bccf43e3ec675dbb20a490b2e41e7335082afbf55e0c4",
    "tournament/spike/random": "94f2fe38078408df83c92bab71f0c069c27e4ef40ed75a141a66afea63c14194",
    "tournament/spike/rl": "8462fd57bacd40bedf0e625a9a5a539b00de6618e11d8c25f4660bb5970c0057",
    "tournament/spike/safe-online": "e60b6c9a7fe1153ee74593beff20a7660eb97eca36f2b3e82c9081390318c621",
    "tournament/steady/annealing": "e66a42c8f3ca4b04dbfb5a5e2d2f38f6ed7ebf1fffaea4a12f7b3b49ff7b26ae",
    "tournament/steady/bo": "7343df346ae1724ae03d1d508f83b8f85be157623d2d51ec8cbd0526487a4302",
    "tournament/steady/grid": "94d701e1bf4794fe7f7a7a870ead3fb5e0213978d478c3cd8adf5bdfb967882d",
    "tournament/steady/nostop": "e39e9a91a7de6ec4dc36f718648f069e997a4205127f07aafd8fc76d41e095dc",
    "tournament/steady/random": "090d6c56ccf5f9150ebff08e50a2d2a5886c9af7572c6dbad0b8e1af1ac3186b",
    "tournament/steady/rl": "790805a3da8bc0a0ee1f6478a0677cd90aaae1627ad8eea2f8548e4e28b621a4",
    "tournament/steady/safe-online": "9ba242bf944103b7cd7ea3571b7605ecbef585a0a164bb9dc822438688723bb2",
    "tournament/step/annealing": "9d0f99bc2c0037dc12314651681361ee43b6581116096ed750ffa2065b57bbf5",
    "tournament/step/bo": "cef40bd6be04dbbf603d1cd07a7dcfca0c3780a74ad54f267f4dc70067602afd",
    "tournament/step/grid": "831ca832ad2b86d842eb7bb56f8af2bddb4ffa267a3715d68b2ec09d8c7303af",
    "tournament/step/nostop": "a337bc07ffc6bd185a86f06947b41ca0ed8933f6076abd6a3c2b5b16fd52420a",
    "tournament/step/random": "3ef16bfd66e1a9da8b8450503f443ddcda8f735623c20fc703224a74dbb4287b",
    "tournament/step/rl": "c9d815baa3e99766f1bd43f71d5347f6f2f2f5b9d0050baa405d645792baeb64",
    "tournament/step/safe-online": "5277d4127050d8f587f73bb2ae063150b833b1c634822820767d0c22eba91064",
}


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(CASES[case]()) == GOLDEN[case]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    \"{name}\": \"{digest(CASES[name]())}\",")

"""The package surface: export tables, registries, import budget, and
the parameters of APIs whose other settings are constants.

Every ``repro`` package declares its public names in one export table
(``repro._exports.lazy_exports``) and imports nothing until a name is
read.  A misspelt table entry therefore no longer fails at import time;
these tests make it fail here instead.  The import-budget tests spawn
fresh interpreters and assert which modules a command's imports load.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import COMMANDS, main

SRC = str(Path(repro.__file__).resolve().parent.parent)

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return its stdout parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def _loaded_after(statement: str):
    return _fresh(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))"
    )


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_resolve(name):
    pkg = importlib.import_module(name)
    assert pkg.__all__, f"{name} exports nothing"
    assert len(set(pkg.__all__)) == len(pkg.__all__)
    listed = dir(pkg)
    for export in pkg.__all__:
        getattr(pkg, export)
        assert export in listed, f"{name}.{export} missing from dir()"


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_is_attribute_error(name):
    pkg = importlib.import_module(name)
    with pytest.raises(AttributeError, match=repr(name)):
        getattr(pkg, "nope")
    assert not hasattr(pkg, "nope")


def test_submodule_import_through_lazy_package():
    from repro.core import nostop

    assert nostop.NoStopController is repro.core.NoStopController


def test_tuner_registry_complete_on_first_read():
    names = _fresh(
        "import json\n"
        "from repro.tuners.base import tuner_names\n"
        "print(json.dumps(tuner_names()))"
    )
    assert names == [
        "annealing", "bo", "grid", "nostop", "random", "rl", "safe-online",
    ]


def test_cell_registry_complete_on_first_read():
    kinds = _fresh(
        "import json\n"
        "from repro.runner.cells import cell_kinds\n"
        "print(json.dumps(cell_kinds()))"
    )
    assert kinds == [
        "bo", "fault_probe", "fixed_config", "nostop", "rate_series",
        "tournament",
    ]


def test_import_repro_loads_only_the_export_helper():
    assert _loaded_after("import repro") == ["repro", "repro._exports"]


#: What building one deployment must not pay for.
NOT_FOR_BUILD = [
    "repro.obs.report", "repro.obs.dash", "repro.obs.detect",
    "repro.obs.exporters", "repro.obs.alerts", "repro.obs.slo",
    "repro.obs.critical",
    "repro.runner.supervisor", "repro.runner.journal",
    "repro.runner.runner", "repro.runner.cells",
    "repro.core.nostop",
    "repro.tuners", "repro.chaos", "repro.check", "repro.baselines",
    "repro.fast.engine",
]


def test_experiment_scaffolding_import_budget():
    loaded = _loaded_after("import repro.experiments.common")
    for module in NOT_FOR_BUILD:
        offenders = [m for m in loaded if m == module or m.startswith(module + ".")]
        assert not offenders, f"{offenders} loaded by experiments.common"
    assert not [m for m in loaded if m.startswith("repro.experiments.fig")]
    assert len(loaded) <= 56, loaded


def test_import_cli_loads_no_subsystem():
    # Commands import their subsystem when they run, and argument
    # choices are read on first use, so the CLI module stands alone.
    assert _loaded_after("import repro.cli") == [
        "repro", "repro._exports", "repro.cli",
    ]


def test_build_parser_loads_no_subsystem():
    assert _loaded_after(
        "import repro.cli\nrepro.cli.build_parser()"
    ) == ["repro", "repro._exports", "repro.cli"]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_prints_its_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: repro {command}")


#: The parameters each of these APIs takes, ``self`` excluded.  Every
#: other value they use is a constant at its point of use; a new setting
#: must be added here on purpose.
SIGNATURES = {
    "repro.core.rate_monitor:RateMonitor": ["cooldown"],
    "repro.core.metrics_collector:MetricsCollector": [
        "window", "max_window", "mad_threshold", "reject_outliers",
    ],
    "repro.core.pause:PauseRule": ["n_best"],
    "repro.core.pause:PauseRule.best": [],
    "repro.core.system:SimulatedSparkSystem": ["context"],
    "repro.core.system:SimulatedSparkSystem.observed_input_rate": [],
    "repro.core.nostop:NoStopController.confirm_best": ["iteration"],
    "repro.core.adjust:evaluate_config": [
        "result", "theta_scaled", "iteration", "rho_cap",
    ],
    "repro.core.perturbation:BernoulliPerturbation": [],
    "repro.obs.detect:EwmaMadDetector": [],
    "repro.obs.detect:CusumDetector": [],
    "repro.obs.detect:SpsaWatchdog": [],
    "repro.obs.critical:steady_state_agreement": ["decomps", "batches"],
    "repro.obs.tracer:Telemetry": [
        "enabled", "task_detail", "sample_rate", "retain_interesting",
    ],
    "repro.obs.emit:EmissionBatcher": ["sink", "registry", "flush_interval"],
    "repro.check.invariants:InvariantEngine": ["context"],
    "repro.check.oracles:steady_state_delay_oracle": ["batches"],
    "repro.check.oracles:utilization_oracle": [
        "workload", "batches", "executors", "overhead",
    ],
    "repro.check.metamorphic:time_dilation_check": [
        "base_batches", "dilated_batches", "k",
    ],
    "repro.check.metamorphic:executor_homogeneity_check": ["workload", "seed"],
    "repro.workloads.wordcount:WordCount": [],
    "repro.workloads.logistic_regression:StreamingLogisticRegression": [],
    "repro.workloads.linear_regression:StreamingLinearRegression": [],
    "repro.workloads.page_analyze:PageAnalyze": [],
    "repro.workloads.windowed:WindowedWordCount": [
        "window_batches", "incremental",
    ],
    "repro.workloads.registry:make_workload": ["name"],
    "repro.datagen.generator:DataGenerator": [
        "topic", "trace", "payload_kind", "seed", "count_only",
    ],
    "repro.datagen.generator:DataGenerator.sample_payloads": ["n"],
    "repro.kafka.producer:RateControlledProducer": [
        "topic", "trace", "count_only",
    ],
    "repro.cluster.resource_manager:ResourceManager": ["cluster"],
    "repro.chaos.runner:standard_chaos_schedule": [],
    "repro.chaos.report:build_event_outcomes": ["records", "batches"],
    "repro.chaos.report:ChaosReport.reconverged": [],
    "repro.experiments.recovery:run_recovery_scenario": [
        "workload", "mode", "rounds", "seed", "kill_time", "outage",
        "pause_n",
    ],
}


@pytest.mark.parametrize("api", sorted(SIGNATURES))
def test_settings_stay_pinned(api):
    module, qualname = api.split(":")
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    names = [
        p for p in inspect.signature(target).parameters if p != "self"
    ]
    assert names == SIGNATURES[api]

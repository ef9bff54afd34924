"""One cold set-up of a workload, run in a fresh interpreter.

``python3 perfbench/setup_probe.py <workload> <seed>`` imports what the
workload's command imports, computes the runner's source-hash version
tag, builds the workload's deployment, simulates its first batch, then
prints ``ready``.  The caller times the process from spawn to that
line: the set-up cost a user pays before the first simulated batch.
Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys


def _exact_steady(seed: int):
    from repro.experiments.common import build_experiment
    from repro.runner.cache import substrate_version_tag

    substrate_version_tag()
    return build_experiment("logistic_regression", seed=seed)


def _chaos_report(seed: int):
    import repro.chaos.runner  # noqa: F401 - imported by judged_chaos_run
    import repro.obs.report  # noqa: F401 - imported by judged_chaos_run
    from repro.experiments.common import build_experiment
    from repro.obs.tracer import Telemetry
    from repro.runner.cache import substrate_version_tag

    substrate_version_tag()
    return build_experiment(
        "wordcount", seed=seed, telemetry=Telemetry(enabled=True)
    )


def _tournament_vec(seed: int):
    from repro.experiments.common import build_experiment
    from repro.runner import SweepRunner  # noqa: F401 - the command's driver
    from repro.runner.cache import substrate_version_tag
    from repro.tuners import scenario_trace

    substrate_version_tag()
    return build_experiment(
        "wordcount",
        seed=seed,
        rate_trace=scenario_trace("steady", "wordcount"),
        fidelity="vectorized",
    )


SETUPS = {
    "exact_steady": _exact_steady,
    "chaos_report": _chaos_report,
    "tournament_vec": _tournament_vec,
}


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    setup = SETUPS[workload](seed)
    while not setup.context.advance_one_batch():
        pass
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

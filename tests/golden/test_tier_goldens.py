"""Golden digests of every fidelity tier's streaming surface.

Pins, per tier, the batch-level output of a fixed configuration on all
four workloads, a NoStop run, and a scripted control sequence that
walks the whole ``change_configuration`` surface (interval, scale up,
scale down, core resize, partitions), an executor crash, and a bounded
queue that evicts.  Together they pin the control surface and the busy
timeline each tier shares.

Same rule as the tuning goldens: a refactor leaves every digest
unchanged.  Print the current digests with::

    PYTHONPATH=src python -m tests.golden.test_tier_goldens
"""

from typing import Any, Callable, Dict

import pytest

from repro.experiments.common import build_experiment
from repro.runner.cells import execute_cell

from .test_tuning_goldens import digest

WORKLOADS = (
    "linear_regression", "logistic_regression", "page_analyze", "wordcount",
)
TIERS = ("exact", "vectorized", "fluid")

#: Boundaries advanced after each step of the control script.
SCRIPT_STEP_BATCHES = 8


def _fixed_cell(workload: str, fidelity: str) -> Callable[[], Any]:
    return lambda: execute_cell("fixed_config", {
        "workload": workload, "seed": 0, "batch_interval": 10.0,
        "num_executors": 10, "batches": 20, "count_only": True,
        "fidelity": fidelity,
    })


def _nostop_cell(fidelity: str) -> Callable[[], Any]:
    return lambda: execute_cell("nostop", {
        "workload": "wordcount", "seed": 0, "rounds": 10,
        "count_only": True, "fidelity": fidelity,
    })


def _control_script(fidelity: str) -> Callable[[], Any]:
    """Every reconfiguration kind plus a crash, on an overloaded pool.

    Two executors at a 2 s interval cannot keep up with the
    logistic-regression band, so the bounded queue of 3 evicts.  The
    drop count is derived from the shared surface alone: every formed
    batch completed, still waits, or was dropped.
    """

    def run() -> Any:
        setup = build_experiment(
            "logistic_regression", seed=0, batch_interval=2.0,
            num_executors=2, queue_max_length=3, count_only=True,
            fidelity=fidelity,
        )
        ctx = setup.context
        steps = (
            lambda: None,
            lambda: ctx.change_configuration(batch_interval=3.0),
            lambda: ctx.change_configuration(num_executors=6),
            lambda: ctx.change_configuration(num_executors=4),
            lambda: ctx.change_configuration(executor_cores=2),
            lambda: ctx.change_configuration(partitions=12),
            ctx.inject_executor_failure,
        )
        for step in steps:
            step()
            ctx.advance_batches(SCRIPT_STEP_BATCHES)
        batches = ctx.listener.metrics.batches
        formed = len(steps) * SCRIPT_STEP_BATCHES
        return {
            "batches": [b.to_dict() for b in batches],
            "configChanges": ctx.config_changes,
            "dropped": formed - len(batches) - ctx.pending_batches,
            "pending": ctx.pending_batches,
        }

    return run


CASES: Dict[str, Callable[[], Any]] = {
    **{
        f"fixed-cell/{w}/{f}": _fixed_cell(w, f)
        for w in WORKLOADS for f in TIERS
    },
    **{f"nostop-cell/wordcount/{f}": _nostop_cell(f) for f in TIERS[1:]},
    **{f"control-script/{f}": _control_script(f) for f in TIERS},
}

GOLDEN: Dict[str, str] = {
    "control-script/exact": "6ceb41bfa287314985affb287709d6df564e9b1f2210683c055124b35fb89fdc",
    "control-script/fluid": "f820841f135263ae7bc284f4f1721003265c120e0c1c270e6f106e2cc953117b",
    "control-script/vectorized": "e812ff4a434beed7e34fc5d95e656357d45827e7659ca06c07424b62d8aa24ec",
    "fixed-cell/linear_regression/exact": "a6bf4c7a5e3de242dd35b314d5fa3a83451d1d26e87a095cf99eaeed225a1a0e",
    "fixed-cell/linear_regression/fluid": "72f4fa2f8016633981ed266cb0429b6d857caab7f764130c0d711b0f48ea0bf3",
    "fixed-cell/linear_regression/vectorized": "1cc73a89f11e5e6702d13d10b97c228afb560c8e2c8bcb24ba85a3d8173651b5",
    "fixed-cell/logistic_regression/exact": "976216760aefee098500a32c603d4b6f0e4c15bc058161db3c67be462360a0fa",
    "fixed-cell/logistic_regression/fluid": "946bc4a7d061f68461f4119ef6d94d8358019841ae73fde29f460235162de7e2",
    "fixed-cell/logistic_regression/vectorized": "1dd0fe4b6d613353c6d5c7081b2dde6548385f39c3fdff413205ab2420aba33c",
    "fixed-cell/page_analyze/exact": "724fdedcf082c47449200fb2d51349bb817b9dcbd5493236673fa3683f46953a",
    "fixed-cell/page_analyze/fluid": "4c6f50ba89c75effef729ca8a8df9230bee137808b61b9d2978682e11571a45b",
    "fixed-cell/page_analyze/vectorized": "f85ed86e8fe2e7554ae8ed1867a0af595c5f2f278d53be35c63d3ffaec5a6c19",
    "fixed-cell/wordcount/exact": "8075fe45da4c442ceac502f0b90d1f88b1ee0dc565c5004e0fa06c70311b143d",
    "fixed-cell/wordcount/fluid": "582ec3b18d3088d70d0b2f43faf10bcfd2d7b43329ec2bab5dfb6c31a11ecb81",
    "fixed-cell/wordcount/vectorized": "97861ad273e3989fa3be2506a1edfac553cf7b20a1ac7a8ce66b81cc4bc6c4b6",
    "nostop-cell/wordcount/fluid": "550301b6c0a490684d7768dd34c606b4c982e5f120bc209e887dd824912c58fe",
    "nostop-cell/wordcount/vectorized": "d2310b6f6ddfa8949807b236a424f50f5dd3163225e34903bd888ab939bc7277",
}


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(CASES[case]()) == GOLDEN[case]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    \"{name}\": \"{digest(CASES[name]())}\",")

"""Golden digests of the per-figure experiment drivers at smoke size.

Pins the result object of each of the fig2/3/5/6/7/8 drivers, converted
with ``dataclasses.asdict`` (numpy arrays as lists), at a fixed seed
and a budget small enough to run in seconds.  Same rule as the tuning goldens: a refactor leaves
every digest unchanged.  Print the current digests with::

    PYTHONPATH=src python -m tests.golden.test_figure_goldens
"""

import dataclasses
import json
from typing import Any, Callable, Dict

import pytest

from repro.experiments.fig2_batch_interval import run_fig2
from repro.experiments.fig3_executors import run_fig3
from repro.experiments.fig5_rates import run_fig5
from repro.experiments.fig6_evolution import run_fig6_one
from repro.experiments.fig7_improvement import run_fig7_one
from repro.experiments.fig8_spsa_vs_bo import run_fig8_one

from .test_tuning_goldens import digest


def _asdict(run: Callable[[], Any]) -> Callable[[], Any]:
    """``dataclasses.asdict`` of the driver's result, arrays as lists."""
    return lambda: json.loads(json.dumps(
        dataclasses.asdict(run()), default=lambda array: array.tolist(),
    ))


CASES: Dict[str, Callable[[], Any]] = {
    "fig2/logistic_regression": _asdict(lambda: run_fig2(
        intervals=(4.0, 12.0, 30.0), batches=6, seed=1,
    )),
    "fig3/logistic_regression": _asdict(lambda: run_fig3(
        executor_counts=(2, 10, 24), batches=6, seed=1,
    )),
    "fig5/all": _asdict(lambda: run_fig5(duration=60.0, dt=5.0, seed=1)),
    "fig6/wordcount": _asdict(lambda: run_fig6_one(
        "wordcount", rounds=6, seed=1,
    )),
    "fig7/wordcount": _asdict(lambda: run_fig7_one(
        "wordcount", repeats=2, rounds=6, base_seed=1,
    )),
    "fig8/wordcount": _asdict(lambda: run_fig8_one(
        "wordcount", repeats=2, rounds=6, bo_evaluations=8, base_seed=1,
    )),
}

GOLDEN: Dict[str, str] = {
    "fig2/logistic_regression": "241d56c0c9b15710da715ecc7c607910ca37a6ed76300a957c400e22430d75d9",
    "fig3/logistic_regression": "bb9a0804cd16f2ea3407648a27fb8921bdc4ee7bdaf2767746c271db6249e3ba",
    "fig5/all": "36ddbc4eaa3d7f9f96d26f9f4c6d9be5e3d03f27c666938728c6a6ba1ee6df81",
    "fig6/wordcount": "de2d3cc525c7bfa39d904e07206f9e73b04fa182d2915869b88be60d21023694",
    "fig7/wordcount": "c6b62780ec88848754d61f59c043651912eb1d9dbedb2442306ffc389bb41315",
    "fig8/wordcount": "bd6459496ac6780629ae845da6a1e36a82b04fff79ee3ad71e3e96a53f9cfbef",
}


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(CASES[case]()) == GOLDEN[case]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    \"{name}\": \"{digest(CASES[name]())}\",")

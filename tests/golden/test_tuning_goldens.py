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
import functools
import hashlib
import io
import json
from typing import Any, Callable, Dict

import pytest

from repro.runner.cells import execute_cell

TOURNAMENT_TUNERS = (
    "annealing", "bo", "grid", "nostop", "random", "rl", "safe-online",
)
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


def _tournament_cell(tuner: str) -> Callable[[], Any]:
    return lambda: execute_cell("tournament", {
        "tuner": tuner, "seed": 0, "scenario": "steady", "budget": 8,
    })


def _nostop_cell() -> Any:
    return execute_cell("nostop", {
        "workload": "wordcount", "seed": 0, "rounds": 10,
        "count_only": True,
    })


def _chaos_report() -> Any:
    from repro.experiments.common import judged_chaos_run

    return judged_chaos_run("wordcount", rounds=10).report.to_json()


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


def _compare_row(name: str) -> Callable[[], Any]:
    return lambda: _compare_table()[name]


CASES: Dict[str, Callable[[], Any]] = {
    **{
        f"bo-cell/{w}/seed{s}": _bo_cell(w, s)
        for w in ("wordcount", "page_analyze") for s in (0, 1)
    },
    "nostop-cell/wordcount/seed0": _nostop_cell,
    **{f"tournament/steady/{t}": _tournament_cell(t) for t in TOURNAMENT_TUNERS},
    "chaos-report/wordcount/rounds10": _chaos_report,
    **{f"compare/{row}": _compare_row(row) for row in COMPARE_ROWS},
}

GOLDEN: Dict[str, str] = {
    "bo-cell/page_analyze/seed0": "74526b9f05fca6a2dcf1bc9d3cbea10c041cb581357e865a40cc4a5ff32add3a",
    "bo-cell/page_analyze/seed1": "5c00b78043d45b9ce7d5953a18de8e1de15f4b1b2a4d0744456e824559f1b6d6",
    "bo-cell/wordcount/seed0": "17f2bf0ad1becd0425d05e14c5e3d111a19ff1fa5750cb8097d43adf9b6ae24b",
    "bo-cell/wordcount/seed1": "73983dfebdae0372dd9fd56382d50f44cd5ae767a81b86ed30d93f2e27c1ce4a",
    "chaos-report/wordcount/rounds10": "a9bc63ac351f728b9c381c49ce54fcf0fb6c4dfb04a3d89037efe2df86192bc8",
    "compare/Bayesian opt": "9e7e5ba410d0b6c3c5a0f8f079b3c5fd45a4793d2306e36682ee2455b528e972",
    "compare/SPSA (NoStop)": "5ccd7cd29b5145be659942b065d11d8e918372858323d64af868162591817230",
    "compare/Simulated annealing": "69ab7c1b5db567780540231b9753db76e70128bc3c2e0800ebce8a31763bd3cc",
    "nostop-cell/wordcount/seed0": "b2659be381dc74af37a46d337fe722215cbc578a23d1dc6eef7be1214742a49c",
    "tournament/steady/annealing": "e66a42c8f3ca4b04dbfb5a5e2d2f38f6ed7ebf1fffaea4a12f7b3b49ff7b26ae",
    "tournament/steady/bo": "7343df346ae1724ae03d1d508f83b8f85be157623d2d51ec8cbd0526487a4302",
    "tournament/steady/grid": "94d701e1bf4794fe7f7a7a870ead3fb5e0213978d478c3cd8adf5bdfb967882d",
    "tournament/steady/nostop": "e39e9a91a7de6ec4dc36f718648f069e997a4205127f07aafd8fc76d41e095dc",
    "tournament/steady/random": "090d6c56ccf5f9150ebff08e50a2d2a5886c9af7572c6dbad0b8e1af1ac3186b",
    "tournament/steady/rl": "790805a3da8bc0a0ee1f6478a0677cd90aaae1627ad8eea2f8548e4e28b621a4",
    "tournament/steady/safe-online": "9ba242bf944103b7cd7ea3571b7605ecbef585a0a164bb9dc822438688723bb2",
}


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(CASES[case]()) == GOLDEN[case]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    \"{name}\": \"{digest(CASES[name]())}\",")

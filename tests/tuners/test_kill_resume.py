"""Mid-tournament kill/resume: journal recovery is bit-identical.

Same acceptance bar as the fig7 interrupt tests, applied to the
``tournament`` cell kind: a tournament killed hard after N durable cell
records (``REPRO_SWEEP_KILL_AFTER``) and resumed from its journal must
produce the identical leaderboard a never-interrupted run produces.
"""

import json
import os
import subprocess
import sys

from repro.runner import SweepJournal, SweepRunner, SweepSpec
from repro.runner.journal import KILL_AFTER_ENV
from repro.tuners import build_leaderboard

BUDGET = 5
SEED = 2
TUNERS = ["nostop", "safe-online"]


def _spec():
    return SweepSpec(
        name="tournament-interrupt",
        kind="tournament",
        base={
            "workload": "wordcount",
            "budget": BUDGET,
            "fidelity": "vectorized",
            "slo_delay": 30.0,
        },
        grid={
            "tuner": TUNERS,
            "scenario": ["steady"],
            "seed": [SEED],
        },
    )


_CHILD_SCRIPT = f"""
from repro.runner import SweepJournal, SweepRunner, SweepSpec

spec = SweepSpec(
    name="tournament-interrupt",
    kind="tournament",
    base={{"workload": "wordcount", "budget": {BUDGET},
          "fidelity": "vectorized", "slo_delay": 30.0}},
    grid={{"tuner": {TUNERS!r}, "scenario": ["steady"], "seed": [{SEED}]}},
)
SweepRunner(journal=SweepJournal({{journal!r}})).run(spec)
print("COMPLETED")
"""


def _run_child(journal_path, kill_after):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop(KILL_AFTER_ENV, None)
    env[KILL_AFTER_ENV] = str(kill_after)
    script = _CHILD_SCRIPT.replace("{journal!r}", repr(str(journal_path)))
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_killed_tournament_resumes_bit_identical(tmp_path):
    journal_path = tmp_path / "tournament.jsonl"
    proc = _run_child(journal_path, kill_after=1)
    assert proc.returncode == 137, proc.stderr
    assert "COMPLETED" not in proc.stdout

    lines = journal_path.read_text().splitlines()
    assert len(lines) == 2  # header + the one durable cell
    for line in lines:
        json.loads(line)

    spec = _spec()
    resumed = SweepRunner(journal=SweepJournal(journal_path)).run(spec)
    assert resumed.stats.journal_replayed == 1
    assert resumed.stats.executed == len(TUNERS) - 1

    baseline = SweepRunner().run(spec)
    assert json.dumps(resumed.results, sort_keys=True) == json.dumps(
        baseline.results, sort_keys=True
    )

    # And the derived artifact — the leaderboard — is byte-identical too.
    kwargs = dict(budget=BUDGET, slo_delay=30.0, fidelity="vectorized")
    assert json.dumps(
        build_leaderboard(resumed.results, **kwargs), sort_keys=True
    ) == json.dumps(
        build_leaderboard(baseline.results, **kwargs), sort_keys=True
    )

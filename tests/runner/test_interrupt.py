"""Interrupted sweeps: kill mid-run, resume from journal, bit-identity.

The acceptance bar for supervised execution: a sweep killed at an
arbitrary cell and resumed from its write-ahead journal produces results
byte-identical to an uninterrupted sequential run, with the cache and
journal both uncorrupted by the kill.  The kill is a real one —
``REPRO_SWEEP_KILL_AFTER=N`` makes the journal ``os._exit(137)`` the
moment the N-th cell record is durable, which is as abrupt as SIGKILL
from the interpreter's point of view (no finalizers, no flushing).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.runner import (
    KILL_AFTER_ENV,
    ResultCache,
    SweepJournal,
    SweepRunner,
)

WORKLOAD = "logistic_regression"
REPEATS = 2
ROUNDS = 6
BASE_SEED = 1


def _dumps(results):
    return json.dumps(results, sort_keys=True)


def _fig7_spec():
    from repro.experiments.fig7_improvement import fig7_optimize_spec

    return fig7_optimize_spec(
        WORKLOAD, repeats=REPEATS, rounds=ROUNDS, base_seed=BASE_SEED,
        count_only=True,
    )


_CHILD_SCRIPT = """
from repro.runner import ResultCache, SweepJournal, SweepRunner
from repro.experiments.fig7_improvement import fig7_optimize_spec

spec = fig7_optimize_spec(
    {workload!r}, repeats={repeats}, rounds={rounds}, base_seed={base_seed},
    count_only=True,
)
cache = ResultCache({cache_dir!r}) if {cache_dir!r} else None
SweepRunner(cache=cache, journal=SweepJournal({journal!r})).run(spec)
print("COMPLETED")  # only reached when the kill switch did not fire
"""


def _run_child(journal_path, kill_after=None, cache_dir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop(KILL_AFTER_ENV, None)
    if kill_after is not None:
        env[KILL_AFTER_ENV] = str(kill_after)
    script = _CHILD_SCRIPT.format(
        workload=WORKLOAD, repeats=REPEATS, rounds=ROUNDS,
        base_seed=BASE_SEED, journal=str(journal_path),
        cache_dir=str(cache_dir) if cache_dir else "",
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("kill_after", [1, 2])
def test_killed_sweep_resumes_bit_identical(tmp_path, kill_after):
    journal_path = tmp_path / "fig7.jsonl"
    proc = _run_child(journal_path, kill_after=kill_after)
    assert proc.returncode == 137, proc.stderr
    assert "COMPLETED" not in proc.stdout

    # The journal survived the kill: a header plus exactly the cells
    # that completed before the switch fired, every line valid JSON.
    lines = journal_path.read_text().splitlines()
    assert len(lines) == 1 + kill_after
    for line in lines:
        json.loads(line)

    spec = _fig7_spec()
    journal = SweepJournal(journal_path)
    resumed = SweepRunner(journal=journal).run(spec)
    assert resumed.stats.journal_replayed == kill_after
    assert resumed.stats.executed == REPEATS - kill_after

    baseline = SweepRunner().run(spec)
    assert _dumps(resumed.results) == _dumps(baseline.results)


def test_kill_switch_inert_without_env(tmp_path):
    journal_path = tmp_path / "fig7.jsonl"
    proc = _run_child(journal_path, kill_after=None)
    assert proc.returncode == 0, proc.stderr
    assert "COMPLETED" in proc.stdout
    lines = journal_path.read_text().splitlines()
    assert len(lines) == 1 + REPEATS


def test_kill_leaves_cache_uncorrupted(tmp_path):
    """A kill mid-sweep must not poison the result cache: the resumed
    run and a cold cache-only run agree, and every surviving cache entry
    still deserializes (self-heal finds nothing to drop)."""
    cache_dir = tmp_path / "cache"
    journal_path = tmp_path / "fig7.jsonl"
    proc = _run_child(journal_path, kill_after=1, cache_dir=cache_dir)
    assert proc.returncode == 137, proc.stderr

    spec = _fig7_spec()
    cache = ResultCache(cache_dir)
    resumed = SweepRunner(
        cache=cache, journal=SweepJournal(journal_path)
    ).run(spec)
    assert cache.self_healed == 0
    baseline = SweepRunner().run(spec)
    assert _dumps(resumed.results) == _dumps(baseline.results)


def test_tampered_journal_line_self_heals_on_resume(tmp_path):
    """SIGKILL can truncate a line mid-write: replay must skip it, count
    it, and re-run that cell — never crash, never serve garbage."""
    journal_path = tmp_path / "fig7.jsonl"
    spec = _fig7_spec()
    SweepRunner(journal=SweepJournal(journal_path)).run(spec)
    lines = journal_path.read_text().splitlines()
    lines[-1] = lines[-1][:20]  # torn final write
    journal_path.write_text("\n".join(lines) + "\n")

    journal = SweepJournal(journal_path)
    resumed = SweepRunner(journal=journal).run(spec)
    assert journal.corrupt_lines_skipped == 1
    assert resumed.stats.journal_replayed == REPEATS - 1
    assert resumed.stats.executed == 1
    baseline = SweepRunner().run(spec)
    assert _dumps(resumed.results) == _dumps(baseline.results)

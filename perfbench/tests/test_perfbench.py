"""Tests of the benchmark itself: tracing, workloads, output contract.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root (about half a minute).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import tracing
from perfbench.run import Session
from perfbench.workloads import WORKLOADS, input_seeds

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each workload on one input: untraced, then traced."""
    out = {}
    for name, workload in WORKLOADS.items():
        session = Session(workload, tmp_path_factory.mktemp(name))
        seed = input_seeds(0)[1]
        plain = session.op(seed)
        rec = tracing.SpanRecorder()
        traced = session.op(seed, rec)
        out[name] = (session, plain, traced, rec)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrapping_leaves_simulated_outputs_unchanged(runs, name):
    session, plain, traced, rec = runs[name]
    assert session.failed == 0
    assert len(rec) > 0
    assert traced[1].digest == plain[1].digest
    assert traced[1].tune == plain[1].tune


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_tile_the_traced_wall(runs, name):
    _session, _plain, traced, rec = runs[name]
    self_s, top = rec.self_times()
    assert all(v >= 0.0 for v in self_s.values())
    assert sum(self_s.values()) == pytest.approx(top, rel=1e-9)
    unattributed = traced[0] - top
    assert 0.0 <= unattributed < 0.05 * traced[0]


def test_obs_is_silent_with_telemetry_off(runs):
    metrics = tracing.layer_metrics(runs["exact_steady"][3])
    assert metrics["obs.calls"] == 0
    assert metrics["obs.spans"] == 0


def test_tournament_bypasses_the_exact_pipeline(runs):
    metrics = tracing.layer_metrics(runs["tournament_vec"][3])
    for layer in ("datagen", "kafka", "workloads", "engine"):
        assert metrics[f"{layer}.calls"] == 0
    assert metrics["runner.cells"] == 21
    assert metrics["fast.calls"] > 0


@pytest.mark.parametrize("name, layers, share", [
    ("exact_steady", ("datagen", "kafka", "engine", "workloads"), 0.5),
    ("tournament_vec", ("fast", "core", "tuners"), 0.5),
    ("chaos_report", ("obs",), 0.05),
])
def test_dominant_layers(runs, name, layers, share):
    _session, _plain, traced, rec = runs[name]
    self_s, _top = rec.self_times()
    assert sum(self_s[layer] for layer in layers) >= share * traced[0]


def test_wrappers_are_removed_after_the_block():
    from repro.datagen.generator import DataGenerator
    from repro.runner import cells, supervisor

    original = DataGenerator.advance_to
    execute = cells.execute_cell
    with tracing.traced(tracing.SpanRecorder()):
        assert DataGenerator.advance_to is not original
        assert supervisor.execute_cell is not execute
    assert DataGenerator.advance_to is original
    assert supervisor.execute_cell is execute


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 11.0])
    rec = tracing.SpanRecorder(clock=lambda: next(ticks))
    outer = rec.open("streaming", "outer")       # 0
    inner = rec.open("engine", "inner")          # 1
    rec.close(inner)                             # 3
    inner2 = rec.open("streaming", "inner2")     # 4
    rec.close(inner2)                            # 10
    rec.close(outer)                             # 11
    self_s, top = rec.self_times()
    assert top == 11.0
    assert self_s["engine"] == 2.0
    assert self_s["streaming"] == 9.0
    assert rec.parents == [-1, 0, 0]


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_declared_metric(trace, section):
    proc = _cli(ROOT, "--workload", "tournament_vec", "--seed", "0",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert sum(line.startswith("digest ") for line in lines) == len(input_seeds(0))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_cli_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "exact_steady", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""

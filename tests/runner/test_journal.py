"""SweepJournal: write-ahead logging, replay, corruption handling."""

import json

import pytest

from repro.obs.catalog import instrument
from repro.obs.tracer import Telemetry
from repro.runner import (
    ResultCache,
    RetryPolicy,
    SweepJournal,
    SweepRunner,
    SweepSpec,
    cell_digest,
    spec_digest,
)
from repro.runner.cache import substrate_version_tag


def _dumps(results):
    return json.dumps(results, sort_keys=True)


@pytest.fixture
def spec():
    return SweepSpec(
        name="journal-demo",
        kind="rate_series",
        base={"duration": 60.0, "dt": 5.0, "seed": 1},
        grid={"workload": ["wordcount", "page_analyze", "linear_regression"]},
    )


def test_spec_digest_ignores_name_but_not_params(spec):
    cells = spec.expand()
    tag = substrate_version_tag()
    renamed = SweepSpec(
        name="other-name", kind=spec.kind, base=spec.base, grid=spec.grid
    )
    assert spec_digest(cells, tag) == spec_digest(renamed.expand(), tag)
    changed = SweepSpec(
        name=spec.name, kind=spec.kind,
        base={**spec.base, "seed": 2}, grid=spec.grid,
    )
    assert spec_digest(cells, tag) != spec_digest(changed.expand(), tag)
    assert spec_digest(cells, tag) != spec_digest(cells, "other-version")


def test_journal_records_and_replays(tmp_path, spec):
    path = tmp_path / "sweep.jsonl"
    first = SweepRunner(journal=SweepJournal(path)).run(spec)
    assert first.stats.executed == 3
    assert len(first.results) == 3

    second = SweepRunner(journal=SweepJournal(path)).run(spec)
    assert second.stats.executed == 0
    assert second.stats.journal_replayed == 3
    assert _dumps(second.results) == _dumps(first.results)


def test_journal_replay_is_spec_scoped(tmp_path, spec):
    path = tmp_path / "sweep.jsonl"
    SweepRunner(journal=SweepJournal(path)).run(spec)
    other = SweepSpec(
        name=spec.name, kind=spec.kind,
        base={**spec.base, "seed": 9}, grid=spec.grid,
    )
    out = SweepRunner(journal=SweepJournal(path)).run(other)
    # Different spec digest -> nothing replayed, everything re-executed.
    assert out.stats.journal_replayed == 0
    assert out.stats.executed == 3


def test_corrupt_journal_line_skipped_and_counted(tmp_path, spec):
    path = tmp_path / "sweep.jsonl"
    SweepRunner(journal=SweepJournal(path)).run(spec)
    lines = path.read_text().splitlines()
    # Tamper the middle cell record (header is line 0).
    lines[2] = lines[2][: len(lines[2]) // 2] + "GARBAGE"
    path.write_text("\n".join(lines) + "\n")

    telemetry = Telemetry(enabled=True)
    journal = SweepJournal(path)
    out = SweepRunner(journal=journal, telemetry=telemetry).run(spec)
    assert journal.corrupt_lines_skipped == 1
    assert out.stats.journal_replayed == 2
    assert out.stats.executed == 1  # only the tampered cell re-ran
    reg = telemetry.metrics
    assert instrument(reg, "repro_runner_journal_corrupt_total").value == 1


def test_tampered_result_payload_fails_key_check(tmp_path, spec):
    path = tmp_path / "sweep.jsonl"
    SweepRunner(journal=SweepJournal(path)).run(spec)
    lines = path.read_text().splitlines()
    entry = json.loads(lines[1])
    entry["key"] = "0" * 64  # valid JSON, wrong content digest
    lines[1] = json.dumps(entry, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")

    out = SweepRunner(journal=SweepJournal(path)).run(spec)
    # The mismatched key is not corrupt JSON, just not replayable.
    assert out.stats.journal_replayed == 2
    assert out.stats.executed == 1


def test_later_journal_entries_win(tmp_path, spec):
    path = tmp_path / "sweep.jsonl"
    journal = SweepJournal(path)
    cells = spec.expand()
    tag = substrate_version_tag()
    digest = journal.begin(spec, cells, tag)
    journal.record_cell(digest, cells[0], tag, "ok", {"stale": True})
    journal.record_cell(digest, cells[0], tag, "ok", {"fresh": True})
    replayed = SweepJournal(path).replay(cells, tag)
    assert replayed == {0: {"fresh": True}}


def test_failed_cells_journaled_but_not_replayed(tmp_path):
    spec = SweepSpec(
        name="failing", kind="fault_probe",
        base={"tag": "probe"}, cases=[{"mode": "crash"}],
    )
    path = tmp_path / "sweep.jsonl"
    retry = RetryPolicy(max_retries=0, backoff_base=0.0)
    SweepRunner(journal=SweepJournal(path), retry=retry).run(spec)
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["type"] for e in entries] == ["sweep", "cell"]
    assert entries[1]["status"] == "failed"
    # A resume re-attempts the failed cell instead of replaying the failure.
    out = SweepRunner(journal=SweepJournal(path), retry=retry).run(spec)
    assert out.stats.journal_replayed == 0
    assert out.stats.failed == 1


def test_journal_composes_with_cache(tmp_path, spec):
    cache = ResultCache(tmp_path / "cache")
    path = tmp_path / "sweep.jsonl"
    first = SweepRunner(cache=cache, journal=SweepJournal(path)).run(spec)
    # Fresh journal, warm cache: hits are re-journaled, nothing executes.
    path2 = tmp_path / "second.jsonl"
    second = SweepRunner(cache=cache, journal=SweepJournal(path2)).run(spec)
    assert second.stats.cache_hits == 3
    assert second.stats.executed == 0
    assert _dumps(second.results) == _dumps(first.results)
    # And that journal now replays without touching the cache.
    third = SweepRunner(journal=SweepJournal(path2)).run(spec)
    assert third.stats.journal_replayed == 3
    assert _dumps(third.results) == _dumps(first.results)


def test_cell_digest_matches_cache_key(tmp_path, spec):
    cells = spec.expand()
    cache = ResultCache(tmp_path / "cache")
    assert cell_digest(cells[0], cache.version_tag) == cache.key(cells[0])

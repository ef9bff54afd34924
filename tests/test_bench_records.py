"""``BENCH_<suite>.json`` keeps what a benchmark session did not produce.

A session replaces the fields its tests record and keeps every other
key, so hand-written before/after records survive ``pytest benchmarks``.
"""

import json

from benchmarks.conftest import write_bench_records


def test_merge_keeps_every_other_key(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({
        "suite": "perf",
        "tests": {
            "test_ran": {"speedup": 50.0, "beforeAfterNote": "by hand"},
            "test_skipped": {"speedup": 3.0},
            "by_hand": {"pairs": 10},
        },
        "history": [{"base": "abc", "after": 1.0}],
    }))
    write_bench_records(
        {"perf": {"test_ran": {"speedup": 60.0}, "test_new": {"n": 1}}},
        tmp_path,
    )
    assert json.loads(path.read_text()) == {
        "suite": "perf",
        "tests": {
            "test_ran": {"speedup": 60.0, "beforeAfterNote": "by hand"},
            "test_skipped": {"speedup": 3.0},
            "by_hand": {"pairs": 10},
            "test_new": {"n": 1},
        },
        "history": [{"base": "abc", "after": 1.0}],
    }


def test_missing_file_is_created(tmp_path):
    write_bench_records({"fig7": {"test_a": {"x": 1}}}, tmp_path)
    assert json.loads((tmp_path / "BENCH_fig7.json").read_text()) == {
        "suite": "fig7", "tests": {"test_a": {"x": 1}},
    }

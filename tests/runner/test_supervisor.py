"""CellSupervisor: retries, timeouts, pool rebuilds, CellFailure."""

import json

import pytest

from repro.obs.catalog import instrument
from repro.obs.tracer import Telemetry
from repro.runner import CellSupervisor, RetryPolicy, SweepRunner, SweepSpec, is_failure
from repro.runner.supervisor import CellFailure, cell_backoff_rng


def _dumps(results):
    return json.dumps(results, sort_keys=True)


def _probe_spec(cases, **base):
    merged = {"tag": "probe"}
    merged.update(base)
    return SweepSpec(name="probes", kind="fault_probe", base=merged, cases=cases)


# -- retry policy --------------------------------------------------------------


def test_retry_policy_attempts():
    assert RetryPolicy(max_retries=2).attempts == 3
    assert RetryPolicy(max_retries=0).attempts == 1


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(timeout_seconds=0.0)


def test_backoff_bounded_and_monotone_base():
    policy = RetryPolicy(
        max_retries=5, backoff_base=0.1, backoff_factor=2.0,
        backoff_cap=0.5, jitter=0.0,
    )
    rng = None  # jitter=0 never draws
    waits = [policy.backoff_seconds(i, rng) for i in range(5)]
    assert waits == [0.1, 0.2, 0.4, 0.5, 0.5]  # capped


def test_backoff_jitter_deterministic_per_cell():
    spec = _probe_spec([{"mode": "ok"}, {"mode": "crash"}])
    cells = spec.expand()
    policy = RetryPolicy(backoff_base=0.1, jitter=0.5)
    a1 = [policy.backoff_seconds(i, cell_backoff_rng(cells[0])) for i in range(3)]
    a2 = [policy.backoff_seconds(i, cell_backoff_rng(cells[0])) for i in range(3)]
    b = [policy.backoff_seconds(i, cell_backoff_rng(cells[1])) for i in range(3)]
    assert a1 == a2          # same cell -> identical jitter sequence
    assert a1 != b           # different cell -> different jitter
    for w in a1:
        assert 0.1 <= w <= 0.15 * 2 ** 2 * (1 + 0.5)


# -- failure classification ----------------------------------------------------


def test_crashing_cell_becomes_poisoned_failure():
    spec = _probe_spec([{"mode": "crash"}])
    sup = CellSupervisor(policy=RetryPolicy(max_retries=2, backoff_base=0.0))
    [(index, result)] = sup.run_cells(spec.expand())
    assert index == 0
    assert is_failure(result)
    assert result["failure"] == "poisoned"
    assert result["attempts"] == 3
    assert result["attemptFailures"] == ["crash", "crash", "crash"]
    assert "injected crash" in result["error"]
    assert sup.cell_failures == 1
    assert sup.retries == 2


def test_failure_result_is_structured_and_serializable():
    failure = CellFailure(
        index=4, kind="nostop", failure="poisoned", attempts=3,
        error="RuntimeError: boom",
        attempt_failures=["crash", "crash", "crash"],
        backoffs=[0.05, 0.1],
    )
    result = failure.to_result()
    json.dumps(result)  # must be JSON-safe for journal/CLI
    assert result["cellFailure"] is True
    assert result["cellIndex"] == 4
    assert result["batchesExecuted"] == 0
    assert is_failure(result)
    assert not is_failure({"meanEndToEndDelay": 1.0})


def test_mixed_sweep_failed_cells_do_not_sink_siblings():
    spec = _probe_spec([{"mode": "ok"}, {"mode": "crash"}, {"mode": "ok"}])
    sup = CellSupervisor(policy=RetryPolicy(max_retries=1, backoff_base=0.0))
    results = dict(sup.run_cells(spec.expand()))
    assert not is_failure(results[0]) and not is_failure(results[2])
    assert results[0]["mode"] == "ok"
    assert is_failure(results[1])


def test_flaky_cell_recovers_within_retry_budget(tmp_path):
    spec = _probe_spec(
        [{"mode": "flaky", "fail_times": 2, "state_dir": str(tmp_path)}]
    )
    sup = CellSupervisor(policy=RetryPolicy(max_retries=2, backoff_base=0.0))
    [(_, result)] = sup.run_cells(spec.expand())
    assert not is_failure(result)
    assert sup.retries == 2


def test_flaky_cell_exhausting_budget_fails(tmp_path):
    spec = _probe_spec(
        [{"mode": "flaky", "fail_times": 5, "state_dir": str(tmp_path)}]
    )
    sup = CellSupervisor(policy=RetryPolicy(max_retries=1, backoff_base=0.0))
    [(_, result)] = sup.run_cells(spec.expand())
    assert is_failure(result)
    assert result["failure"] == "poisoned"


# -- pooled execution: timeouts and dead workers -------------------------------


def test_timeout_reaps_hung_cell():
    spec = _probe_spec([{"mode": "hang", "hang_seconds": 30.0}])
    sup = CellSupervisor(
        workers=1,
        policy=RetryPolicy(
            max_retries=1, timeout_seconds=0.3, backoff_base=0.0
        ),
    )
    [(_, result)] = sup.run_cells(spec.expand())
    assert is_failure(result)
    assert result["failure"] == "timeout"
    assert sup.timeouts == 2  # both attempts timed out


def test_killed_worker_rebuilds_pool_and_spares_siblings():
    spec = _probe_spec([{"mode": "kill"}, {"mode": "ok"}])
    sup = CellSupervisor(
        workers=2, policy=RetryPolicy(max_retries=1, backoff_base=0.0)
    )
    results = dict(sup.run_cells(spec.expand()))
    assert is_failure(results[0])
    assert results[0]["failure"] == "pool_broken"
    assert not is_failure(results[1])
    assert sup.pool_rebuilds >= 1


# -- runner integration --------------------------------------------------------


def test_runner_sweep_always_returns_with_failures(tmp_path):
    spec = _probe_spec([{"mode": "ok"}, {"mode": "crash"}])
    runner = SweepRunner(
        retry=RetryPolicy(max_retries=1, backoff_base=0.0)
    )
    out = runner.run(spec)
    assert len(out.results) == 2
    assert not out.ok
    assert [f["cellIndex"] for f in out.failures] == [1]
    assert out.stats.failed == 1
    assert out.stats.retries == 1
    assert runner.failures == out.failures


def test_failed_cells_never_cached(tmp_path):
    from repro.runner import ResultCache

    cache = ResultCache(tmp_path / "cache")
    spec = _probe_spec([{"mode": "crash"}])
    runner = SweepRunner(
        cache=cache, retry=RetryPolicy(max_retries=0, backoff_base=0.0)
    )
    out = runner.run(spec)
    assert is_failure(out.results[0])
    # A second run re-executes (nothing was cached for the failed cell).
    runner2 = SweepRunner(
        cache=cache, retry=RetryPolicy(max_retries=0, backoff_base=0.0)
    )
    out2 = runner2.run(spec)
    assert out2.stats.cache_hits == 0
    assert is_failure(out2.results[0])


def test_failure_results_bit_identical_across_runs():
    spec = _probe_spec([{"mode": "crash"}, {"mode": "ok"}])
    policy = RetryPolicy(max_retries=2, backoff_base=0.0)
    a = SweepRunner(retry=policy).run(spec).results
    b = SweepRunner(retry=policy).run(spec).results
    assert _dumps(a) == _dumps(b)


def test_supervisor_metrics_flow_into_registry():
    telemetry = Telemetry(enabled=True)
    spec = _probe_spec([{"mode": "crash"}])
    runner = SweepRunner(
        telemetry=telemetry,
        retry=RetryPolicy(max_retries=2, backoff_base=0.0),
    )
    runner.run(spec)
    reg = telemetry.metrics
    assert instrument(reg, "repro_supervisor_retries_total").value == 2
    assert instrument(reg, "repro_supervisor_cell_failures_total").value == 1

"""SweepRunner: ordering, parallel determinism, cache accounting."""

import json

import pytest

from repro.obs.catalog import instrument
from repro.obs.tracer import Telemetry
from repro.runner import ResultCache, SweepRunner, SweepSpec


def _dumps(results):
    return json.dumps(results, sort_keys=True)


@pytest.fixture
def small_spec():
    # Three cheap but real simulation cells.
    return SweepSpec(
        name="small",
        kind="fixed_config",
        base={
            "workload": "logistic_regression",
            "num_executors": 10,
            "batches": 8,
            "warmup": 2,
            "seed": 3,
        },
        grid={"batch_interval": [8.0, 12.0, 20.0]},
    )


@pytest.fixture
def free_spec():
    # Simulation-free cells (rate sampling only) for fan-out mechanics.
    return SweepSpec(
        name="rates",
        kind="rate_series",
        base={"duration": 60.0, "dt": 5.0, "seed": 1},
        grid={"workload": ["wordcount", "logistic_regression", "page_analyze",
                           "linear_regression"]},
    )


class TestOrderingAndDeterminism:
    def test_results_in_spec_order_with_workers(self, free_spec):
        sweep = SweepRunner(workers=3).run(free_spec)
        got = [r["workload"] for r in sweep.results]
        want = [c.param_dict["workload"] for c in sweep.cells]
        assert got == want

    def test_parallel_bit_identical_to_sequential(self, small_spec):
        seq = SweepRunner(workers=1).run(small_spec)
        par = SweepRunner(workers=3).run(small_spec)
        assert _dumps(seq.results) == _dumps(par.results)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)

    def test_unknown_kind_raises(self):
        spec = SweepSpec(name="bad", kind="no_such_kind", base={"seed": 1})
        with pytest.raises(KeyError, match="no_such_kind"):
            SweepRunner().run(spec)


class TestCacheAccounting:
    def test_first_run_misses_second_run_all_hits(self, tmp_path, small_spec):
        cache = ResultCache(tmp_path)
        first = SweepRunner(cache=cache).run(small_spec)
        assert first.stats.cache_hits == 0
        assert first.stats.cache_misses == 3
        assert first.stats.executed == 3
        assert first.stats.batches_executed == 3 * 8

        second = SweepRunner(workers=2, cache=cache).run(small_spec)
        assert second.stats.cache_hits == 3
        assert second.stats.executed == 0
        # The verifiable "zero simulations" claim.
        assert second.stats.batches_executed == 0
        assert second.stats.hit_rate == 1.0
        assert _dumps(second.results) == _dumps(first.results)

    def test_no_cache_ignores_reads_but_still_writes(self, tmp_path, small_spec):
        cache = ResultCache(tmp_path)
        fresh = SweepRunner(cache=cache, use_cache=False).run(small_spec)
        assert fresh.stats.executed == 3
        # The bypassing run still seeded the cache for the next one.
        warm = SweepRunner(cache=cache).run(small_spec)
        assert warm.stats.cache_hits == 3
        assert _dumps(warm.results) == _dumps(fresh.results)

    def test_partial_overlap_executes_only_new_cells(self, tmp_path, small_spec):
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run(small_spec)
        wider = SweepSpec(
            name=small_spec.name,
            kind=small_spec.kind,
            base=small_spec.base,
            grid={"batch_interval": [8.0, 12.0, 20.0, 30.0]},
        )
        sweep = SweepRunner(cache=cache).run(wider)
        assert sweep.stats.cache_hits == 3
        assert sweep.stats.executed == 1

    def test_no_cache_object_runs_everything(self, small_spec):
        sweep = SweepRunner().run(small_spec)
        assert sweep.stats.executed == 3
        assert sweep.stats.cache_misses == 3

    def test_totals_accumulate_across_runs(self, tmp_path, small_spec):
        runner = SweepRunner(cache=ResultCache(tmp_path))
        runner.run(small_spec)
        runner.run(small_spec)
        assert runner.totals.cells == 6
        assert runner.totals.cache_hits == 3
        assert runner.totals.executed == 3


class TestMetrics:
    def test_runner_metrics_flow_through_registry(self, tmp_path, small_spec):
        telemetry = Telemetry(enabled=True)
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache, telemetry=telemetry)
        runner.run(small_spec)
        runner.run(small_spec)
        reg = telemetry.metrics
        assert instrument(reg, "repro_runner_cells_total").value == 6
        assert instrument(reg, "repro_runner_cache_hits_total").value == 3
        assert instrument(reg, "repro_runner_cache_misses_total").value == 3
        assert instrument(reg, "repro_runner_cells_executed_total").value == 3
        assert instrument(reg, "repro_runner_sweep_seconds").count == 2

"""Unit tests for the workload job factory."""

import numpy as np
import pytest

from repro.workloads import make_workload
from repro.workloads.logistic_regression import StreamingLogisticRegression
from repro.workloads.wordcount import WordCount


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestBuildJob:
    def test_job_structure_matches_cost_model(self, rng):
        wl = WordCount(partitions=8)
        job = wl.build_job(batch_time=5.0, records=1000, rng=rng)
        assert job.workload == "wordcount"
        assert len(job.stages) == 2
        assert all(s.num_tasks == 8 for s in job.stages)
        assert job.records == 1000

    def test_records_conserved_per_stage(self, rng):
        wl = WordCount(partitions=7)
        job = wl.build_job(batch_time=0.0, records=1003, rng=rng)
        for stage in job.stages:
            assert stage.total_records == 1003

    def test_job_ids_increment(self, rng):
        wl = WordCount()
        a = wl.build_job(0.0, 10, rng)
        b = wl.build_job(1.0, 10, rng)
        assert b.job_id == a.job_id + 1

    def test_ml_iterations_only_on_gradient_stage(self, rng):
        wl = StreamingLogisticRegression()
        job = wl.build_job(0.0, 1000, rng)
        by_name = {s.name: s for s in job.stages}
        assert by_name["gradient"].iterations >= 4
        assert by_name["parse"].iterations == 1
        assert by_name["update"].iterations == 1

    def test_iterations_vary_between_batches(self, rng):
        wl = StreamingLogisticRegression()
        iters = {
            wl.build_job(float(i), 100, rng).stages[1].iterations
            for i in range(50)
        }
        assert len(iters) > 1  # the §6.3 ML noisiness

    def test_task_costs_scale_with_records(self, rng):
        wl = WordCount(partitions=4)
        small = wl.build_job(0.0, 1000, rng)
        large = wl.build_job(1.0, 10_000, rng)
        assert large.total_compute_cost > 5 * small.total_compute_cost

    def test_zero_record_job_valid(self, rng):
        wl = WordCount()
        job = wl.build_job(0.0, 0, rng)
        assert job.records == 0
        assert len(job.stages) == 2

    def test_negative_records_rejected(self, rng):
        with pytest.raises(ValueError):
            WordCount().build_job(0.0, -1, rng)

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ValueError):
            WordCount(partitions=0)

    @pytest.mark.parametrize("name", [
        "logistic_regression", "linear_regression", "wordcount", "page_analyze",
    ])
    def test_expected_cost_positive(self, name):
        wl = make_workload(name)
        assert any(
            s.compute_per_record + s.io_per_record > 0
            for s in wl.cost_model.stages
        )

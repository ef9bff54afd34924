"""End-to-end integration tests across all subsystems."""

import json

import pytest

from repro.baselines.backpressure import run_backpressure
from repro.baselines.fixed import DEFAULT_CONFIGURATION, run_fixed_configuration
from repro.experiments.common import build_experiment, make_controller, run_search


class TestFullStackNoStop:
    """NoStop driving the full simulated deployment."""

    @pytest.fixture(scope="class")
    def outcome(self):
        setup = build_experiment("page_analyze", seed=21)
        controller = make_controller(setup, seed=21)
        report = controller.run(35)
        return setup, controller, report

    def test_improves_over_default(self, outcome):
        setup, controller, report = outcome
        nostop = build_experiment(
            "page_analyze", seed=77,
            batch_interval=report.final_interval,
            num_executors=report.final_executors,
        )
        default = build_experiment(
            "page_analyze", seed=77,
            batch_interval=DEFAULT_CONFIGURATION.batch_interval,
            num_executors=DEFAULT_CONFIGURATION.num_executors,
        )
        tuned = run_fixed_configuration(nostop.context, batches=25, warmup=4)
        untuned = run_fixed_configuration(default.context, batches=25, warmup=4)
        assert tuned.mean_end_to_end_delay < untuned.mean_end_to_end_delay
        assert tuned.unstable_fraction < 0.5

    def test_kafka_records_flow_through(self, outcome):
        setup, _, _ = outcome
        assert setup.generator.producer.total_produced > 0
        assert setup.context.receiver.consumer.total_consumed > 0
        assert setup.context.listener.metrics.total_records() > 0

    def test_executors_lived_on_heterogeneous_nodes(self, outcome):
        setup, _, _ = outcome
        nodes = {e.node.node_id for e in setup.context.resource_manager.executors}
        assert len(nodes) >= 2  # spread over workers

    def test_listener_json_reports_flow(self, outcome):
        setup, _, _ = outcome
        metrics = setup.context.listener.metrics
        payload = json.loads(json.dumps([b.to_dict() for b in metrics.recent(3)]))
        assert len(metrics) > 10
        assert [b["batchIndex"] for b in payload] == [
            b.batch_index for b in metrics.recent(3)
        ]


class TestKernelIntegration:
    """Run the real compute kernel on the records a batch would carry."""

    def test_wordcount_kernel_on_sampled_batch(self):
        setup = build_experiment("wordcount", seed=8)
        infos = setup.context.advance_batches(3)
        sample = setup.generator.sample_payloads(min(2000, infos[0].records))
        counts = setup.workload.run_kernel(sample)
        assert sum(counts.values()) > 0

    def test_lr_kernel_learns_on_sampled_batches(self):
        setup = build_experiment("logistic_regression", seed=8)
        setup.context.advance_batches(2)
        for _ in range(6):
            sample = setup.generator.sample_payloads(500)
            out = setup.workload.run_kernel(sample)
        assert out["accuracy"] > 0.7


class TestOptimizerShootout:
    """All three approaches on the same workload band."""

    def test_nostop_and_bo_beat_backpressure_delay(self):
        seed = 31
        # NoStop
        s1 = build_experiment("linear_regression", seed=seed)
        c1 = make_controller(s1, seed=seed)
        r1 = c1.run(30)
        nostop_delay = c1.pause_rule.best_config().end_to_end_delay
        # BO
        s2 = build_experiment("linear_regression", seed=seed)
        r2 = run_search(s2, "bo", seed=seed, max_evaluations=40, confirm=True)
        # Back pressure at the default config
        s3 = build_experiment(
            "linear_regression", seed=seed,
            batch_interval=DEFAULT_CONFIGURATION.batch_interval,
            num_executors=DEFAULT_CONFIGURATION.num_executors,
        )
        bp = run_backpressure(s3.context, batches=30, warmup=4)

        assert nostop_delay < bp.mean_end_to_end_delay
        assert r2.best_delay < bp.mean_end_to_end_delay
        # Comparable final results (paper §6.4): within 2x of each other.
        ratio = nostop_delay / r2.best_delay
        assert 0.4 < ratio < 2.5

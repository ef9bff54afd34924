"""Cross-tier equivalence: the fast tiers must satisfy the same analytic
oracles the exact DES does, and the exact tier must be bit-identical to
the engine as it existed before the fast tier was added."""

import pytest

from repro.check.oracles import run_oracles
from repro.datagen.rates import (
    PAPER_RATE_BANDS,
    RATE_BAND_ALIASES,
    ConstantRate,
    SineRate,
    StepRate,
)
from repro.experiments.common import build_experiment
from repro.fast import check_fast_run
from repro.runner.cells import execute_cell

WORKLOADS = sorted(PAPER_RATE_BANDS)

RATE_SHAPES = ("paper_band", "constant", "step", "sine")


def _rate_trace(workload: str, shape: str):
    """Build one rate shape scaled to the workload's paper band.

    ``paper_band`` returns None so build_experiment uses its default
    (the §6.2.2 uniform-random band trace).
    """
    lo, hi = PAPER_RATE_BANDS[RATE_BAND_ALIASES.get(workload, workload)]
    mid = (lo + hi) / 2.0
    if shape == "paper_band":
        return None
    if shape == "constant":
        return ConstantRate(mid)
    if shape == "step":
        return StepRate.of((0.0, lo), (200.0, hi), (400.0, mid))
    if shape == "sine":
        return SineRate(base=mid, amplitude=(hi - lo) / 2.0, period=240.0)
    raise AssertionError(shape)


@pytest.mark.parametrize("shape", RATE_SHAPES)
@pytest.mark.parametrize("workload", WORKLOADS)
class TestVectorizedTierOracles:
    def test_oracles_and_invariants(self, workload, shape):
        setup = build_experiment(
            workload,
            seed=11,
            rate_trace=_rate_trace(workload, shape),
            fidelity="vectorized",
        )
        setup.context.advance_batches(60)
        for oracle in run_oracles(setup, warmup=5):
            assert oracle.passed, (
                f"{workload}/{shape}: {oracle.oracle} expected "
                f"{oracle.expected:.3f} got {oracle.actual:.3f} "
                f"(tol {oracle.tolerance:.3f})"
            )
        checks, violations = check_fast_run(setup.context)
        assert checks > 0
        assert violations == [], [v.render() for v in violations]


class TestFluidTier:
    def test_fluid_is_noise_free(self):
        setup = build_experiment("logistic_regression", seed=3,
                                 fidelity="fluid")
        setup.context.advance_batches(30)
        a = [b.processing_time
             for b in setup.context.listener.metrics.batches]
        again = build_experiment("logistic_regression", seed=3,
                                 fidelity="fluid")
        again.context.advance_batches(30)
        b = [x.processing_time
             for x in again.context.listener.metrics.batches]
        assert a == b


class TestVectorizedVsFluidAgreement:
    def test_mean_processing_within_noise(self):
        """σ=0 vectorized and fluid agree closely at the mean (both are
        the same cost model; vectorized resolves LPT packing exactly,
        fluid divides work by aggregate capacity)."""
        vec = build_experiment(
            "linear_regression", seed=5, noise_sigma=0.0,
            fidelity="vectorized",
        )
        vec.context.advance_batches(40)
        flu = build_experiment(
            "linear_regression", seed=5, fidelity="fluid"
        )
        flu.context.advance_batches(40)
        pv = vec.context.listener.metrics.mean_processing_time()
        pf = flu.context.listener.metrics.mean_processing_time()
        # Fluid ignores packing quantization, so it is a lower bound;
        # 15% covers the LPT remainder on the paper's 58-core pool.
        assert pf <= pv * 1.02
        assert abs(pv - pf) / pv < 0.15


class TestExactTierRegression:
    """fidelity="exact" must remain byte-identical to the pre-fast-tier
    engine: golden values recorded from the seed revision."""

    def test_fixed_config_cell_bit_identical(self):
        res = execute_cell(
            "fixed_config",
            {
                "workload": "logistic_regression",
                "seed": 101,
                "batch_interval": 10.0,
                "num_executors": 10,
                "batches": 20,
            },
        )
        assert res["meanEndToEndDelay"] == 15.175851878815697
        assert res["meanProcessingTime"] == 9.610258549776036
        assert res["batchesExecuted"] == 20

    def test_nostop_cell_bit_identical(self):
        res = execute_cell(
            "nostop", {"workload": "wordcount", "seed": 1, "rounds": 4}
        )
        assert res["finalInterval"] == 4.489
        assert res["finalExecutors"] == 17
        assert res["batchesExecuted"] == 104
        assert res["simTime"] == 432.07199999999955

    def test_explicit_exact_fidelity_matches_default(self):
        base = execute_cell(
            "fixed_config",
            {
                "workload": "wordcount",
                "seed": 7,
                "batch_interval": 8.0,
                "num_executors": 10,
                "batches": 10,
            },
        )
        explicit = execute_cell(
            "fixed_config",
            {
                "workload": "wordcount",
                "seed": 7,
                "batch_interval": 8.0,
                "num_executors": 10,
                "batches": 10,
                "fidelity": "exact",
            },
        )
        assert base == explicit


class TestDigestStability:
    """fidelity only enters cell params for non-default tiers, so
    exact-tier cache keys and journal identities are unchanged."""

    def test_specs_omit_exact_fidelity(self):
        from repro.experiments.fig2_batch_interval import fig2_spec
        from repro.experiments.fig3_executors import fig3_spec
        from repro.experiments.fig7_improvement import fig7_measure_spec
        from repro.experiments.fig8_spsa_vs_bo import fig8_spsa_spec

        assert "fidelity" not in fig2_spec().base
        assert fig2_spec(fidelity="exact").base == fig2_spec().base
        assert fig3_spec(fidelity="exact").base == fig3_spec().base
        assert "fidelity" not in fig8_spsa_spec("wordcount").base
        reports = [{"finalInterval": 6.0, "finalExecutors": 12}]
        spec = fig7_measure_spec("wordcount", reports, fidelity="exact")
        for cell in spec.expand():
            assert "fidelity" not in cell.param_dict

    def test_non_default_tier_changes_digest(self):
        from repro.experiments.fig2_batch_interval import fig2_spec
        from repro.runner.cache import cell_digest

        exact = fig2_spec().expand()[0]
        fast = fig2_spec(fidelity="vectorized").expand()[0]
        assert cell_digest(exact, "v") != cell_digest(fast, "v")


class TestFastCells:
    def test_fixed_config_cell_runs_vectorized(self):
        res = execute_cell(
            "fixed_config",
            {
                "workload": "wordcount",
                "seed": 3,
                "batch_interval": 10.0,
                "num_executors": 10,
                "batches": 25,
                "fidelity": "vectorized",
            },
        )
        assert res["batchesExecuted"] == 25
        assert res["meanProcessingTime"] > 0

    def test_nostop_cell_runs_vectorized(self):
        res = execute_cell(
            "nostop",
            {
                "workload": "wordcount",
                "seed": 1,
                "rounds": 6,
                "fidelity": "vectorized",
            },
        )
        assert res["batchesExecuted"] > 0
        assert res["finalInterval"] > 0

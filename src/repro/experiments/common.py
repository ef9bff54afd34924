"""Shared experiment scaffolding.

Every paper experiment runs on the same substrate: the Table 2 cluster,
a five-broker Kafka deployment, one of the four workloads fed at its
Fig. 5 rate band.  :func:`build_experiment` assembles that stack;
:func:`make_controller` attaches a paper-parameterized NoStop controller
(§6.2.1: A=1, a=10, c=2, θ₀ = center, N=10, S=1).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.runner import ChaosRunResult
    from repro.core.gains import GainSchedule
    from repro.core.nostop import NoStopController, NoStopReport
    from repro.obs.report import RunJudge, RunReport
    from repro.tuners.base import TunerRunReport

from repro.cluster.cluster import Cluster, paper_cluster
from repro.core.bounds import MinMaxScaler, paper_configuration_space
from repro.core.metrics_collector import MetricsCollector
from repro.core.system import SimulatedSparkSystem
from repro.datagen.generator import DataGenerator
from repro.datagen.rates import RateTrace, paper_rate_trace
from repro.engine.overhead import DEFAULT_OVERHEAD, OverheadModel
from repro.engine.task_scheduler import NoiseModel
from repro.kafka.cluster import KafkaCluster, paper_kafka_cluster
from repro.obs.tracer import Telemetry
from repro.streaming.context import StreamingConfig, StreamingContext
from repro.workloads.registry import make_workload
from repro.workloads.base import Workload


@dataclass
class ExperimentSetup:
    """A fully wired simulated deployment."""

    cluster: Cluster
    kafka: KafkaCluster
    workload: Workload
    generator: DataGenerator
    context: StreamingContext
    system: SimulatedSparkSystem
    scaler: MinMaxScaler
    telemetry: Optional[Telemetry] = None


def build_experiment(
    workload_name: str,
    seed: int = 0,
    batch_interval: float = 10.0,
    num_executors: int = 10,
    rate_trace: Optional[RateTrace] = None,
    overhead: OverheadModel = DEFAULT_OVERHEAD,
    noise_sigma: float = 0.10,
    max_executors: int = 20,
    queue_max_length: int = 25,
    cluster: Optional[Cluster] = None,
    telemetry: Optional[Telemetry] = None,
    count_only: bool = False,
    fidelity: str = "exact",
) -> ExperimentSetup:
    """Assemble the paper's deployment for one workload.

    ``seed`` derives all stochastic streams (rate trace, task noise,
    payload synthesis) so repeats with different seeds are the paper's
    "repeat five times" protocol.

    ``queue_max_length`` bounds the batch queue: a long-unstable
    configuration sheds its oldest batches (the "possible data loss"
    of §1) instead of accumulating unbounded backlog — without a bound,
    a few unstable probes early in an optimization run would poison the
    rest of the experiment with queue drain.

    ``count_only`` enables the data generator's segment-per-rate-span
    fast path (see :class:`~repro.kafka.producer.RateControlledProducer`)
    — the sweep runner turns it on for cost-model-driven cells.

    ``telemetry`` attaches a tracing/metrics/audit bundle to the whole
    stack.  When left ``None`` and ``REPRO_TRACE`` is set in the
    environment, an enabled bundle is created automatically — the CI
    hook for running the full test suite with tracing on.

    ``fidelity`` selects the simulation tier: ``"exact"`` (the default)
    is the per-record/per-task DES; ``"vectorized"`` and ``"fluid"``
    swap in :class:`~repro.fast.context.FastStreamingContext`, the
    numpy batch-level engine or the analytic closed forms (see
    :mod:`repro.fast`).  The fast tiers expose the same control and
    listener surface, so every consumer of the returned setup works
    unchanged; chaos fault models require the exact tier.
    """
    from repro.fast import FIDELITIES

    if fidelity not in FIDELITIES:
        raise ValueError(
            f"fidelity must be one of {FIDELITIES}, got {fidelity!r}"
        )
    if telemetry is None and os.environ.get("REPRO_TRACE"):
        telemetry = Telemetry(enabled=True)
    cluster = cluster or paper_cluster()
    kafka = paper_kafka_cluster(cluster.total_cores)
    workload = make_workload(workload_name)
    trace = rate_trace or paper_rate_trace(workload_name, seed=seed)
    generator = DataGenerator(
        kafka.topic("events"),
        trace,
        payload_kind=workload.payload_kind,
        seed=seed,
        count_only=count_only,
    )
    if fidelity == "exact":
        context = StreamingContext(
            cluster,
            workload,
            generator,
            StreamingConfig(batch_interval, num_executors),
            seed=seed,
            overhead=overhead,
            noise=NoiseModel(sigma=noise_sigma),
            queue_max_length=queue_max_length,
            telemetry=telemetry,
        )
    else:
        from repro.fast import FastStreamingContext

        context = FastStreamingContext(
            cluster,
            workload,
            generator,
            StreamingConfig(batch_interval, num_executors),
            seed=seed,
            overhead=overhead,
            noise_sigma=noise_sigma,
            queue_max_length=queue_max_length,
            telemetry=telemetry,
            mode=fidelity,
        )
    system = SimulatedSparkSystem(context)
    scaler = paper_configuration_space(max_executors)
    return ExperimentSetup(
        cluster=cluster,
        kafka=kafka,
        workload=workload,
        generator=generator,
        context=context,
        system=system,
        scaler=scaler,
        telemetry=telemetry,
    )


def make_controller(
    setup: ExperimentSetup,
    seed: int = 0,
    gains: Optional[GainSchedule] = None,
    pause_n: int = 10,
    collector: Optional[MetricsCollector] = None,
    harden: Optional[bool] = None,
) -> NoStopController:
    """NoStop controller with the paper's §6.2.1 settings.

    ``harden`` picks a profile for runs under faults.  ``True`` is the
    full noise-tolerance stack: a collector that rejects MAD outliers
    (threshold 3.5) and re-measures, a rate-monitor cooldown of 6
    observations, probe retry and guarded SPSA steps.  ``False`` is its
    ablation arm: outlier *detection* stays on, so poisoned steps can be
    counted, but nothing is rejected, retried or guarded.  ``None``
    keeps the paper's settings.  A given ``collector`` replaces the
    profile's.

    Inherits the setup's telemetry bundle, so the controller's audit
    trail lands next to the substrate's traces and metrics.
    """
    from repro.core.nostop import NoStopController
    from repro.core.pause import PauseRule
    from repro.core.rate_monitor import RateMonitor

    if harden is not None:
        collector = collector or MetricsCollector(
            mad_threshold=3.5, reject_outliers=harden
        )
    return NoStopController(
        system=setup.system,
        scaler=setup.scaler,
        gains=gains,
        pause_rule=PauseRule(n_best=pause_n),
        rate_monitor=RateMonitor(cooldown=6) if harden else None,
        collector=collector,
        seed=seed,
        harden=harden is not False,
        telemetry=setup.telemetry,
    )


def run_search(
    setup: ExperimentSetup,
    tuner: str,
    seed: int = 0,
    max_evaluations: int = 30,
    confirm: bool = False,
) -> "TunerRunReport":
    """Run one registered tuner against a deployment via ``run_tuner``.

    With ``confirm``, a singleton winner is then re-measured by the same
    :meth:`~repro.core.nostop.NoStopController.confirm_best` pass NoStop
    ends its run with, and the report's best-configuration fields and
    search time cover the confirmation too.
    """
    from repro.tuners.base import make_tuner, run_tuner

    return run_tuner(
        make_tuner(tuner, setup.scaler, seed=seed),
        setup.system,
        setup.scaler,
        max_evaluations=max_evaluations,
        confirm=confirm,
    )


def paper_repeat_seeds(base_seed: int, repeats: int) -> list:
    """The §6.3 "repeat five times" seed protocol.

    Repeat ``r`` uses ``base_seed + 100 * r`` — spaced out so a
    repeat's derived streams (measurement seeds at ``+7``, etc.) never
    collide with a neighbouring repeat.  The figure drivers pin these
    into their sweep specs, so runner-executed repeats are byte-for-byte
    the sequential protocol.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    return [base_seed + 100 * rep for rep in range(repeats)]


def quick_nostop_run(  # det: allow-unused: the README quick start
    workload_name: str,
    rounds: int = 30,
    seed: int = 0,
) -> NoStopReport:
    """One-call NoStop run: build the deployment, optimize, report."""
    setup = build_experiment(workload_name, seed=seed)
    controller = make_controller(setup, seed=seed)
    return controller.run(rounds)


@dataclass
class JudgedRun:
    """One judged chaos run: the substrate, the verdicts, the report."""

    setup: ExperimentSetup
    judge: "RunJudge"
    chaos: "ChaosRunResult"
    report: "RunReport"
    telemetry: Telemetry


def judged_chaos_run(
    workload_name: str = "wordcount",
    rounds: int = 40,
    seed: int = 7,
    rate_shift_at: float = 600.0,
    rate_shift_multiplier: float = 0.25,
    telemetry: Optional[Telemetry] = None,
) -> JudgedRun:
    """The seeded chaos quickstart behind ``repro report``.

    One fully instrumented NoStop run combining every signal the run
    report judges: the standard two-fault chaos schedule (executor crash
    at t=120 s, broker stall at t=300 s), plus a scripted sustained
    input-rate shift (×``rate_shift_multiplier`` from ``rate_shift_at``
    onward — the §5.5 regime change that must fire both the CUSUM
    detector and NoStop's restart rule).  The default is a ×0.25
    down-shift: it exercises the same rate-monitor math as a surge
    without drowning the cluster for the rest of the run, so the report
    judges the shift response rather than a permanently backlogged
    system.  The judge watches the listener *during* the run; the
    returned :class:`JudgedRun` carries the stitched
    :class:`~repro.obs.report.RunReport`.

    Deterministic for a given (workload, seed, rounds): the report's
    text/HTML/JSON renderings are byte-identical across repeats.
    """
    import math

    from repro.datagen.rates import SpikeRate
    from repro.obs.report import RunJudge, build_run_report

    if telemetry is None:
        telemetry = Telemetry(enabled=True)
    base_trace = paper_rate_trace(workload_name, seed=seed)
    shifted = SpikeRate(
        base_trace,
        spikes=((rate_shift_at, math.inf, rate_shift_multiplier),),
    )
    setup = build_experiment(
        workload_name,
        seed=seed,
        rate_trace=shifted,
        telemetry=telemetry,
    )
    judge = RunJudge()
    judge.attach_tracer(telemetry.tracer)
    setup.context.listener.watch(judge)

    from repro.chaos.runner import run_chaos_scenario, standard_chaos_schedule

    chaos = run_chaos_scenario(
        setup, standard_chaos_schedule(), rounds=rounds, seed=seed
    )
    report = build_run_report(
        judge,
        telemetry,
        title=f"NoStop chaos run: {workload_name}",
        workload=workload_name,
        seed=seed,
        rounds=rounds,
        nostop_report=chaos.nostop,
        events=chaos.report.events,
        sim_duration=setup.context.time,
        records_total=setup.context.listener.metrics.total_records(),
    )
    return JudgedRun(
        setup=setup, judge=judge, chaos=chaos,
        report=report, telemetry=telemetry,
    )

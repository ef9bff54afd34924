"""Metamorphic relations over the simulator.

Where the analytic oracles check absolute values, metamorphic relations
check *transformations*: apply a change to the inputs whose effect on the
outputs is known exactly, and verify the simulator agrees.

* **time-dilation** — scaling arrival rates and executor speeds by the
  same factor ``k`` multiplies both the work per batch and the capacity
  per second by ``k``, so processing times, stability classification and
  interval-normalized delays are invariant.  (Holds for compute-bound
  workloads: I/O cost pays disk penalties, not CPU speed, so the relation
  is exercised on streaming logistic regression whose stages are pure
  compute.  Driver-side overheads and per-stage fixed costs do not scale
  with ``k`` either, which is what the tolerance absorbs.)
* **executor-homogeneity** — for the LPT list scheduler, N single-core
  executors of speed s are exactly one N-core executor of speed s: with
  overheads and noise disabled the two makespans agree to float
  round-off (overheads are charged per *executor* — startup — and per
  *executor count* — coordination — so they are removed rather than
  tolerated).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.executor import Executor
from repro.cluster.node import DiskType, I5_9400, Node, NodeRole
from repro.datagen.rates import SpikeRate
from repro.engine.overhead import ZERO_OVERHEAD
from repro.engine.task_scheduler import NoiseModel, TaskScheduler
from repro.streaming.metrics import BatchInfo

from .violations import OracleResult

#: Allowed difference in unstable-batch fraction under time dilation.
DILATION_STABILITY_TOL = 0.10
#: Allowed difference in mean normalized (e2e/interval) delay.
DILATION_DELAY_TOL = 0.10

#: The homogeneity check's batch: records per job, on this many
#: executors (or cores) of this CPU speed factor.
HOMOGENEITY_RECORDS = 50_000
HOMOGENEITY_EXECUTORS = 8
HOMOGENEITY_SPEED = 1.0
#: Allowed relative makespan gap: float round-off only.
HOMOGENEITY_REL_TOL = 1e-9


def scaled_cluster(base: Cluster, k: float) -> Cluster:
    """A copy of ``base`` with every CPU's speed factor multiplied by k."""
    if k <= 0:
        raise ValueError(f"scale factor must be positive, got {k}")
    nodes = [
        Node(
            n.node_id,
            replace(n.cpu, speed_factor=n.cpu.speed_factor * k),
            n.disk,
            n.role,
            memory_gb=n.memory_gb,
        )
        for n in base.nodes
    ]
    return Cluster(nodes, name=f"{base.name}-x{k:g}")


def scaled_rate_trace(trace, k: float):
    """``trace`` with every instantaneous rate multiplied by k."""
    return SpikeRate(base=trace, spikes=((0.0, math.inf, k),))


def stability_fraction(batches: Sequence[BatchInfo]) -> float:
    """Fraction of non-empty batches classified stable (proc <= interval)."""
    considered = [b for b in batches if b.records > 0]
    if not considered:
        return 1.0
    return sum(1 for b in considered if b.stable) / len(considered)


def normalized_delays(batches: Sequence[BatchInfo]) -> List[float]:
    """Per-batch end-to-end delay in units of the batch's interval."""
    return [
        b.end_to_end_delay / b.interval for b in batches if b.records > 0
    ]


def time_dilation_check(
    base_batches: Sequence[BatchInfo],
    dilated_batches: Sequence[BatchInfo],
    k: float,
) -> Tuple[OracleResult, OracleResult]:
    """Compare a base run against its k-dilated twin.

    Returns two :class:`OracleResult`s — stability-classification
    invariance and normalized-delay invariance.  Callers produce the two
    runs with :func:`scaled_cluster` / :func:`scaled_rate_trace` (see
    ``tests/check/test_metamorphic.py`` for the canonical wiring).
    """
    base_stab = stability_fraction(base_batches)
    dil_stab = stability_fraction(dilated_batches)
    stability = OracleResult(
        oracle=f"time-dilation-stability-x{k:g}",
        expected=base_stab,
        actual=dil_stab,
        tolerance=DILATION_STABILITY_TOL,
        samples=min(len(base_batches), len(dilated_batches)),
        detail="stable-batch fraction must survive rate+speed scaling",
    )
    base_norm = normalized_delays(base_batches)
    dil_norm = normalized_delays(dilated_batches)
    if base_norm and dil_norm:
        expected = float(np.mean(base_norm))
        actual = float(np.mean(dil_norm))
        samples = min(len(base_norm), len(dil_norm))
    else:
        expected = actual = 0.0
        samples = 0
    delay = OracleResult(
        oracle=f"time-dilation-delay-x{k:g}",
        expected=expected,
        actual=actual,
        tolerance=DILATION_DELAY_TOL * max(expected, 1e-9),
        samples=samples,
        detail="mean e2e delay / interval must survive rate+speed scaling",
    )
    return stability, delay


def _uniform_node(cores: int, speed: float) -> Node:
    return Node(
        1,
        replace(I5_9400, cores=cores, speed_factor=speed),
        DiskType.SSD,
        NodeRole.WORKER,
        memory_gb=4.0 * cores,
    )


def executor_homogeneity_check(workload, seed: int = 0) -> OracleResult:
    """N single-core executors at speed s ≡ one N-core executor at speed s.

    Runs one batch job through the task scheduler both ways with zero
    overheads and zero noise; the makespans must agree to round-off
    (same aggregate capacity, same LPT order, no per-executor charges).
    N and s are :data:`HOMOGENEITY_EXECUTORS` and
    :data:`HOMOGENEITY_SPEED`.
    """
    n, speed = HOMOGENEITY_EXECUTORS, HOMOGENEITY_SPEED
    rng = np.random.default_rng(seed)
    job = workload.build_job(
        batch_time=0.0,
        records=HOMOGENEITY_RECORDS,
        rng=np.random.default_rng(seed),
    )
    scheduler = TaskScheduler(
        overhead=ZERO_OVERHEAD, noise=NoiseModel(sigma=0.0)
    )
    split = [
        Executor(
            executor_id=i,
            node=_uniform_node(n, speed),
            cores=1,
            memory_gb=1.0,
            initialized=True,
        )
        for i in range(n)
    ]
    aggregate = [
        Executor(
            executor_id=0,
            node=_uniform_node(n, speed),
            cores=n,
            memory_gb=float(n),
            initialized=True,
        )
    ]
    run_split = scheduler.run_job(job, split, 0.0, rng)
    run_agg = scheduler.run_job(job, aggregate, 0.0, np.random.default_rng(seed))
    expected = run_split.processing_time
    actual = run_agg.processing_time
    return OracleResult(
        oracle=f"executor-homogeneity-{n}x1-vs-1x{n}",
        expected=expected,
        actual=actual,
        tolerance=HOMOGENEITY_REL_TOL * max(abs(expected), 1.0),
        samples=1,
        detail=(
            f"{n} single-core executors vs one {n}-core executor, "
            "zero overhead/noise"
        ),
    )


def dilated_experiment_kwargs(
    workload_name: str,
    k: float,
    seed: int = 0,
) -> dict:
    """``build_experiment`` keyword overrides for the k-dilated twin.

    Kept here (rather than importing ``build_experiment``, which would
    create an import cycle through ``repro.experiments``) so tests and
    the CLI assemble the dilated run identically.
    """
    from repro.cluster.cluster import paper_cluster
    from repro.datagen.rates import paper_rate_trace

    base_trace = paper_rate_trace(workload_name, seed=seed)
    return {
        "cluster": scaled_cluster(paper_cluster(), k),
        "rate_trace": scaled_rate_trace(base_trace, k),
    }


__all__ = [
    "DILATION_DELAY_TOL",
    "DILATION_STABILITY_TOL",
    "dilated_experiment_kwargs",
    "executor_homogeneity_check",
    "normalized_delays",
    "scaled_cluster",
    "scaled_rate_trace",
    "stability_fraction",
    "time_dilation_check",
]

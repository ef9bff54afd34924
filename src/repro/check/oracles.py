"""Analytic oracles: closed-form expectations vs. simulator output.

Two queueing-theoretic identities give checkable closed forms (the same
technique Lin et al. use to validate their Spark Streaming simulator
against analytic expectations):

* **steady-state delay identity** — with arrivals uniform inside each
  interval, a record waits on average ``interval / 2`` for its batch to
  close, then the batch's scheduling delay, then its processing time:
  ``E[e2e] = interval/2 + scheduling_delay + processing_time``.  For a
  stable fixed configuration the scheduling delay is ~0 and this reduces
  to the paper's ``interval/2 + processing time``.  The identity holds
  per batch, so it is checked as the mean absolute residual over the
  clean batches of a run.
* **utilization law** — batch processing time follows from the workload
  cost model and the executor pool's aggregate capacity: per stage
  execution, compute core-seconds divide by ``sum(cores x speed)``, I/O
  core-seconds pay the pool-average disk penalty over ``sum(cores)``,
  plus the serial driver-side overheads the overhead model charges.
  The law is the fluid tier's coster,
  :func:`repro.fast.engine.fluid_proc_times`, evaluated for one batch.
  List-scheduling imbalance and task noise keep this from being exact;
  the tolerance is stated relative to the prediction.

Tolerances are deliberately loose enough to pass on every seed of the
shipped targets yet tight enough that a factor-level fidelity bug (lost
wait time, double-charged stage, wrong capacity aggregation) fails them.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence

from repro.cluster.executor import Executor
from repro.engine.overhead import OverheadModel
from repro.fast.engine import ExecutorProfile, fluid_proc_times
from repro.obs.critical import STEADY_STATE_REL_TOL
from repro.streaming.metrics import BatchInfo
from repro.workloads.base import Workload

from .violations import OracleResult

#: Allowed relative error of the utilization-law processing-time
#: prediction (covers LPT imbalance, task noise, iteration-count draws).
UTILIZATION_REL_TOL = 0.30


def clean_batches(
    batches: Sequence[BatchInfo],
    warmup: int = 5,
    num_executors: Optional[int] = None,
    interval: Optional[float] = None,
) -> List[BatchInfo]:
    """Batches suitable for analytic comparison.

    Drops the warmup prefix (executor startup charges), empty batches
    (receiver stalls), and first-after-reconfig batches (the §5.4 rule),
    and — when a target configuration is given — keeps only batches run
    at that configuration (for optimizer runs, the final one).
    """
    out = []
    for i, b in enumerate(batches):
        if i < warmup:
            continue
        if b.records <= 0 or b.first_after_reconfig:
            continue
        if num_executors is not None and b.num_executors != num_executors:
            continue
        if interval is not None and abs(b.interval - interval) > 1e-9:
            continue
        out.append(b)
    return out


def steady_state_delay_oracle(batches: Sequence[BatchInfo]) -> OracleResult:
    """Check ``e2e = interval/2 + scheduling delay + processing time``.

    Compares mean observed end-to-end delay against the mean of the
    per-batch closed form; tolerance is :data:`STEADY_STATE_REL_TOL` x
    mean interval.
    """
    if not batches:
        return OracleResult(
            oracle="steady-state-delay",
            expected=0.0,
            actual=0.0,
            tolerance=0.0,
            samples=0,
            detail="no clean batches to compare",
        )
    expected = sum(
        b.interval / 2.0 + b.scheduling_delay + b.processing_time
        for b in batches
    ) / len(batches)
    actual = sum(b.end_to_end_delay for b in batches) / len(batches)
    mean_interval = sum(b.interval for b in batches) / len(batches)
    return OracleResult(
        oracle="steady-state-delay",
        expected=expected,
        actual=actual,
        tolerance=STEADY_STATE_REL_TOL * mean_interval,
        samples=len(batches),
        detail="interval/2 + scheduling delay + processing time",
    )


def utilization_oracle(
    workload: Workload,
    batches: Sequence[BatchInfo],
    executors: Sequence[Executor],
    overhead: OverheadModel,
) -> OracleResult:
    """Check mean processing time against the utilization-law prediction."""
    if not batches:
        return OracleResult(
            oracle="utilization-law",
            expected=0.0,
            actual=0.0,
            tolerance=0.0,
            samples=0,
            detail="no clean batches to compare",
        )
    mean_records = sum(b.records for b in batches) / len(batches)
    # On a copy: a windowed workload's effective_records slides its window.
    cost_records = copy.deepcopy(workload).effective_records(
        int(round(mean_records))
    )
    expected = float(fluid_proc_times(
        workload, overhead, ExecutorProfile(executors), [cost_records]
    )[0])
    actual = sum(b.processing_time for b in batches) / len(batches)
    return OracleResult(
        oracle="utilization-law",
        expected=expected,
        actual=actual,
        tolerance=UTILIZATION_REL_TOL * expected,
        samples=len(batches),
        detail=(
            f"cost-model prediction at {mean_records:.0f} records/batch "
            f"on {len(executors)} executors"
        ),
    )


def run_oracles(setup, warmup: int = 5) -> List[OracleResult]:
    """Evaluate all analytic oracles against a finished run's batches.

    ``setup`` is an :class:`~repro.experiments.common.ExperimentSetup`
    whose context has been advanced; for optimizer runs the comparison
    restricts itself to batches measured at the final configuration.
    """
    ctx = setup.context
    rm = ctx.resource_manager
    batches = clean_batches(
        ctx.listener.metrics.batches,
        warmup=warmup,
        num_executors=rm.executor_count,
        interval=ctx.batch_interval,
    )
    return [
        steady_state_delay_oracle(batches),
        utilization_oracle(
            setup.workload, batches, rm.executors, ctx.overhead
        ),
    ]

"""Controller checkpointing: serialize and restore full NoStop state.

The paper's §5.5 restart rule is *stateless*: any driver failure (or
rate-drift reset) throws away the SPSA iterate, the gain-schedule
position, the ρ penalty, and every configuration evaluation, and the
optimizer starts over from the center of the box.  arXiv:2309.01901
names exactly this restart cost as NoStop's core limitation.

This module provides the alternative the recovery experiments compare
against: a **checkpoint** capturing everything the controller needs to
resume mid-optimization —

* the SPSA iterate θ, iteration counter k, and exact RNG bit-generator
  state (so future perturbation draws are bit-identical);
* the ρ penalty schedule position;
* the pause rule's full evaluation history (the ranking that decides
  both pausing and the parked optimum);
* the §5.4 metrics-collector window state;
* the §5.5 rate-monitor window, hysteresis, and reset count;
* controller round/pause bookkeeping and the audit-trail cursor.

Checkpoints are plain JSON-safe dicts: journal them, write them to
disk, or hand them to a freshly constructed controller on another
"machine".  A controller restored onto the same live system continues
**bit-exactly** — the continuation's round records match an
uninterrupted run's — which the checkpoint test suite hard-asserts via
audit-trail replay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .nostop import NoStopController

#: Format version stamped into every checkpoint.
CHECKPOINT_VERSION = 1


def controller_checkpoint(controller: "NoStopController") -> Dict[str, Any]:
    """Snapshot ``controller`` into a JSON-safe dict."""
    report = controller.report
    return {
        "version": CHECKPOINT_VERSION,
        "simTime": float(controller.system.time),
        "roundsRun": int(controller._rounds_run),
        "paused": bool(controller.paused),
        "startTime": float(controller._start_time),
        "adjustCalls": int(controller.adjust.calls),
        "spsa": controller.spsa.checkpoint(),
        "rho": controller.rho.checkpoint(),
        "pauseRule": controller.pause_rule.checkpoint(),
        "collector": controller.collector.checkpoint(),
        "rateMonitor": controller.rate_monitor.checkpoint(),
        "counters": {
            "poisonedStepsAvoided": int(controller.poisoned_steps_avoided),
            "poisonedStepsTaken": int(controller.poisoned_steps_taken),
            "corruptedRetries": int(controller.corrupted_retries),
        },
        "report": {
            "resets": int(report.resets),
            "firstPauseRound": report.first_pause_round,
            "firstPauseTime": report.first_pause_time,
            "adjustCallsToPause": report.adjust_calls_to_pause,
        },
        "audit": {
            "decisions": len(controller.audit.decisions),
            "firings": len(controller.audit.firings),
        },
    }


def controller_restore(
    controller: "NoStopController",
    state: Dict[str, Any],
    reapply: bool = False,
) -> None:
    """Load a checkpoint into ``controller``, resuming its trajectory.

    With ``reapply=True`` the checkpointed configuration is pushed back
    onto the system — what a restarted driver does when it resubmits the
    job — at the cost of one extra configuration change.  Leave it False
    when the system still holds the configuration (in-process handover),
    which keeps the continuation bit-exact.
    """
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    controller.spsa.restore(state["spsa"])
    controller.rho.restore(state["rho"])
    controller.pause_rule.restore(state["pauseRule"])
    controller.collector.restore(state["collector"])
    controller.rate_monitor.restore(state["rateMonitor"])
    controller.paused = bool(state["paused"])
    controller._rounds_run = int(state["roundsRun"])
    controller._start_time = float(state["startTime"])
    controller.adjust.calls = int(state["adjustCalls"])
    counters = state["counters"]
    controller.poisoned_steps_avoided = int(counters["poisonedStepsAvoided"])
    controller.poisoned_steps_taken = int(counters["poisonedStepsTaken"])
    controller.corrupted_retries = int(counters["corruptedRetries"])
    report = state["report"]
    controller.report.resets = int(report["resets"])
    controller.report.first_pause_round = report["firstPauseRound"]
    controller.report.first_pause_time = report["firstPauseTime"]
    controller.report.adjust_calls_to_pause = report["adjustCallsToPause"]

    if reapply:
        import numpy as np

        from .adjust import theta_to_configuration

        if controller.paused and controller.pause_rule.evaluations:
            theta = np.asarray(
                controller.pause_rule.best_config().theta, dtype=float
            )
        else:
            theta = controller.spsa.theta
        config = theta_to_configuration(theta, controller.scaler)
        controller.system.apply_configuration(
            config[0], config[1],
            partitions=config[2] if len(config) > 2 else None,
            executor_cores=config[3] if len(config) > 3 else None,
        )

    audit_cursor = state.get("audit", {})
    controller.audit.record_firing(
        "restore", controller._rounds_run, controller.system.time,
        detail=(
            f"controller restored from checkpoint: k={controller.spsa.k}, "
            f"paused={controller.paused}, "
            f"evaluations={controller.pause_rule.evaluations}, "
            f"audit cursor decisions={audit_cursor.get('decisions', 0)} "
            f"firings={audit_cursor.get('firings', 0)}"
        ),
    )

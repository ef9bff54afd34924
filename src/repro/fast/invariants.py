"""Post-hoc invariant check of a finished fast-tier run.

:class:`~repro.check.invariants.InvariantEngine` checks fast-tier runs
live, like exact ones.  :func:`check_fast_run` replays a run that had
no engine attached through the same checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.check.violations import InvariantViolation

    from .context import FastStreamingContext


def check_fast_run(
    context: "FastStreamingContext",
) -> Tuple[int, List["InvariantViolation"]]:
    """Replay every completed batch through an :class:`InvariantEngine`.

    Returns ``(checks_run, violations)``; each batch's close is replayed
    as its boundary.
    """
    from repro.check.invariants import InvariantEngine

    engine = InvariantEngine(context)
    engine.detach()
    for info in context.listener.metrics.batches:
        engine.on_boundary(info.batch_time)
        engine.on_batch(info)
    return engine.checks_run, list(engine.violations)

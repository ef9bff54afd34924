"""Recovery observability: MTTR and overshoot from batch histories.

The chaos engine logs *when* faults fired; these helpers read the
streaming listener's batch history to quantify *how* the system coped:

* **time-to-recover** — from fault injection until the pipeline is again
  processing batches within their interval (``k`` consecutive stable
  batches, so one lucky batch does not count as recovery);
* **delay overshoot** — how far end-to-end delay rose above its
  pre-fault baseline while the fault was being absorbed.

Both are defined purely over :class:`~repro.streaming.metrics.BatchInfo`
sequences, so they apply equally to NoStop runs and to the fixed /
back-pressure baselines the recovery benchmark compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Dict, List, Optional

from repro.obs.span import Span
from repro.streaming.metrics import BatchInfo


def time_to_recover(
    batches: Sequence[BatchInfo],
    fault_start: float,
    consecutive: int = 3,
) -> float:
    """Seconds from ``fault_start`` until sustained stability returns.

    Recovery is declared at the completion time of the ``consecutive``-th
    consecutive stable batch (``processing_time <= interval``) among
    batches completing after the fault.  Returns ``math.inf`` when the
    history never restabilizes — a baseline that stays drowned reports an
    infinite MTTR rather than a misleading large number.
    """
    if consecutive < 1:
        raise ValueError(f"consecutive must be >= 1, got {consecutive}")
    run = 0
    for b in batches:
        if b.processing_end <= fault_start:
            continue
        if b.stable:
            run += 1
            if run >= consecutive:
                return b.processing_end - fault_start
        else:
            run = 0
    return math.inf


def baseline_delay(
    batches: Sequence[BatchInfo],
    before: float,
    window: int = 10,
) -> Optional[float]:
    """Mean end-to-end delay of the last ``window`` pre-fault batches."""
    prior = [b for b in batches if b.processing_end <= before]
    if not prior:
        return None
    used = prior[-window:]
    return sum(b.end_to_end_delay for b in used) / len(used)


def delay_overshoot(
    batches: Sequence[BatchInfo],
    fault_start: float,
    recovered_by: Optional[float] = None,
) -> Optional[float]:
    """Peak delay above the pre-fault baseline during the fault window.

    ``recovered_by`` bounds the window (None = rest of the history).
    Returns None when there is no pre-fault baseline or no batch in the
    window; 0.0 when the fault never pushed delay above baseline.
    """
    base = baseline_delay(batches, before=fault_start)
    if base is None:
        return None
    end = math.inf if recovered_by is None else recovered_by
    window = [
        b for b in batches if fault_start < b.processing_end <= end
    ]
    if not window:
        return None
    peak = max(b.end_to_end_delay for b in window)
    return max(0.0, peak - base)


# -- joining chaos events to batch traces ------------------------------------


@dataclass(frozen=True)
class FaultTraceJoin:
    """One chaos event located in the trace stream.

    ``event_id`` is the :class:`~repro.chaos.engine.EventRecord` sequence
    number the engine stamped on the ``chaos.inject`` span event, so a
    ChaosReport row, an MTTR number, and the exact batch trace that
    absorbed the fault all share one key.
    """

    event_id: int
    name: str
    kind: str
    fired_at: float
    trace_id: str
    """Trace of the batch being formed when the fault fired."""
    recover_trace_id: Optional[str] = None
    """Trace carrying the matching ``chaos.recover`` event, if any."""


class FaultJoinResult(Sequence):
    """Joins in event-id order, plus how many fault events had no trace.

    Behaves as a sequence of :class:`FaultTraceJoin` (iteration,
    indexing, ``len``) so existing call sites keep working; ``orphans``
    counts chaos events that could not be located in the span store —
    spans evicted by the tracer's ring bound, tracing disabled mid-run,
    or a malformed ``event_id`` attribute.  Because orphans are *skipped*
    rather than joined, ``result[i]`` does **not** necessarily line up
    with ``ChaosEngine.records[i]``; join by ``event_id`` instead.
    """

    def __init__(self, joins: List[FaultTraceJoin], orphans: int) -> None:
        self.joins = joins
        self.orphans = orphans

    def __iter__(self):
        return iter(self.joins)

    def __len__(self) -> int:
        return len(self.joins)

    def __getitem__(self, index):
        return self.joins[index]

    def __repr__(self) -> str:
        return (
            f"FaultJoinResult({len(self.joins)} joins, "
            f"{self.orphans} orphans)"
        )


def join_faults_to_traces(
    spans: Sequence[Span],
    records: Optional[Sequence] = None,
) -> FaultJoinResult:
    """Map every ``chaos.inject`` span event to its batch trace.

    Scans root spans for chaos events (the engine attaches them to the
    batch span current at the boundary where the fault fired) and pairs
    injections with their recoveries by event id.

    A fault event whose ``event_id`` has no matching trace span — the
    batch span was evicted from the tracer's ring buffer, tracing was
    off when the fault fired, or the attribute is not an integer — is
    *skipped*, not an error.  Pass the engine's ``records`` to have
    those skips counted: ``result.orphans`` is the number of recorded
    firings absent from the join (without ``records``, only malformed
    span events can be detected and counted).
    """
    injected: Dict[int, FaultTraceJoin] = {}
    recovered: Dict[int, str] = {}
    malformed = 0
    for span in spans:
        for ev in span.events:
            eid = ev.attributes.get("event_id")
            if eid is None:
                continue
            try:
                eid = int(eid)
            except (TypeError, ValueError):
                malformed += 1
                continue
            if ev.name == "chaos.inject":
                injected[eid] = FaultTraceJoin(
                    event_id=eid,
                    name=str(ev.attributes.get("fault", "")),
                    kind=str(ev.attributes.get("kind", "")),
                    fired_at=ev.time,
                    trace_id=span.trace_id,
                )
            elif ev.name == "chaos.recover":
                recovered[eid] = span.trace_id
    joins = []
    for eid in sorted(injected):
        j = injected[eid]
        if eid in recovered:
            j = FaultTraceJoin(
                event_id=j.event_id, name=j.name, kind=j.kind,
                fired_at=j.fired_at, trace_id=j.trace_id,
                recover_trace_id=recovered[eid],
            )
        joins.append(j)
    if records is not None:
        orphans = sum(
            1 for r in records if int(r.event_id) not in injected
        )
    else:
        orphans = malformed
    return FaultJoinResult(joins, orphans)

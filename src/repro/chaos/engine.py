"""The chaos engine: drives a fault schedule through a live context.

The engine registers itself as a batch-boundary hook on the streaming
context, so faults fire at exactly the simulated times the schedule
names, *wherever* the simulation is being advanced from — an Adjust
measurement loop, a fixed-configuration baseline run, or a raw
``advance_batches`` call.  All stochastic choices (crash victims,
straggler picks) come from one seeded generator, so an identical
(seed, schedule) pair replays an identical fault history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.obs import catalog
from repro.streaming.context import StreamingContext

from .events import FaultEvent, FaultSchedule


@dataclass
class EventRecord:
    """One firing of a fault event, as logged by the engine."""

    name: str
    kind: str
    fired_at: float
    detail: str
    recover_due: Optional[float] = None
    recovered_at: Optional[float] = None
    event_id: int = 0
    """Engine-wide firing sequence number; the same id is stamped on the
    ``chaos.inject`` span event, so traces and ChaosReport rows join."""

    def to_dict(self) -> Dict[str, object]:
        return {
            "eventId": self.event_id,
            "name": self.name,
            "kind": self.kind,
            "firedAt": self.fired_at,
            "detail": self.detail,
            "recoverDue": self.recover_due,
            "recoveredAt": self.recovered_at,
        }


@dataclass
class _ActiveFault:
    event: FaultEvent
    record: EventRecord
    recover_at: float = field(default=math.inf)


class ChaosEngine:
    """Fire scheduled faults into a :class:`StreamingContext`.

    Parameters
    ----------
    context:
        The live streaming application to torment.
    schedule:
        The declarative fault schedule.
    seed:
        Seeds victim selection; identical (seed, schedule) pairs replay
        identical fault histories.
    """

    def __init__(
        self,
        context: StreamingContext,
        schedule: FaultSchedule,
        seed: int = 0,
    ) -> None:
        self.context = context
        self.schedule = schedule
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self._last_tick = -math.inf
        self._last_fired: Dict[str, Optional[float]] = {
            e.name: None for e in schedule
        }
        self._active: List[_ActiveFault] = []
        self._reads_rate = any(e.trigger.reads_rate for e in schedule)
        #: Complete firing log, in firing order.
        self.records: List[EventRecord] = []
        self.telemetry = context.telemetry
        registry = self.telemetry.metrics
        # Injection/recovery counters are labeled by fault kind (a small
        # closed set — crash, straggler, skew, …) so a run report can say
        # *what* fired, not just how often.
        self._m_injections = catalog.instrument(
            registry, "repro_chaos_injections_total"
        )
        self._m_recoveries = catalog.instrument(
            registry, "repro_chaos_recoveries_total"
        )
        self._m_active = catalog.instrument(
            registry, "repro_chaos_active_faults"
        )
        context.add_boundary_hook(self.on_boundary)

    # -- state ---------------------------------------------------------------

    @property
    def faults_active(self) -> bool:
        """Whether any injected fault has not yet recovered."""
        return bool(self._active)

    @property
    def injections(self) -> int:
        return len(self.records)

    def first_fire_time(self) -> Optional[float]:
        return self.records[0].fired_at if self.records else None

    def last_recovery_time(self) -> Optional[float]:
        """Latest recovery (or firing, for no-recovery events) so far."""
        times = [
            r.recovered_at if r.recovered_at is not None else r.fired_at
            for r in self.records
        ]
        return max(times) if times else None

    # -- the boundary hook ---------------------------------------------------

    def on_boundary(self, boundary: float) -> None:
        """Advance chaos state to ``boundary`` (called by the context).

        Recoveries due by the boundary run before new injections, so a
        fault whose window closed cannot shadow the next one.
        """
        self._recover_due(boundary)
        rate = self._observed_rate() if self._reads_rate else 0.0
        for event in self.schedule:
            fires = event.trigger.fire_times(
                self._last_tick, boundary, rate, self._last_fired[event.name]
            )
            for t in fires:
                self._fire(event, t, boundary)
        self._last_tick = boundary

    def _observed_rate(self) -> float:
        window = max(self.context.batch_interval, 10.0)
        try:
            return self.context.receiver.observed_rate(window=window)
        except ValueError:
            return 0.0

    def _fire(self, event: FaultEvent, fire_time: float, boundary: float) -> None:
        detail = event.injector.inject(self.context, boundary, self.rng)
        self._last_fired[event.name] = fire_time
        record = EventRecord(
            name=event.name,
            kind=event.injector.kind,
            fired_at=fire_time,
            detail=detail,
            event_id=len(self.records) + 1,
        )
        if event.duration is not None:
            record.recover_due = fire_time + event.duration
            self._active.append(
                _ActiveFault(event=event, record=record,
                             recover_at=fire_time + event.duration)
            )
        self.records.append(record)
        self._m_injections.labels(kind=record.kind).inc()
        self._m_active.set(len(self._active))
        # Fault firings become span events on the batch being formed, so
        # a trace shows exactly which batch absorbed which fault and
        # analysis can join MTTR numbers to traces by event id.
        self.context.current_batch_span.add_event(
            "chaos.inject", fire_time,
            event_id=record.event_id, fault=record.name,
            kind=record.kind, detail=record.detail,
        )
        # The whole outage window is interesting, not just the batch that
        # carries the chaos.inject event: tail retention keeps every
        # trace overlapping [fire, recovery] even under head sampling.
        self.telemetry.tracer.note_interest(
            fire_time,
            record.recover_due if record.recover_due is not None else fire_time,
            "chaos",
        )

    def _recover_due(self, boundary: float) -> None:
        still: List[_ActiveFault] = []
        for af in self._active:
            if af.recover_at <= boundary:
                af.event.injector.recover(self.context, boundary)
                af.record.recovered_at = boundary
                self._m_recoveries.labels(kind=af.record.kind).inc()
                self.context.current_batch_span.add_event(
                    "chaos.recover", boundary,
                    event_id=af.record.event_id, fault=af.record.name,
                )
            else:
                still.append(af)
        self._active = still
        self._m_active.set(len(self._active))

    def finish(self, now: Optional[float] = None) -> None:
        """Recover every still-active fault (end of scenario)."""
        t = self.context.time if now is None else now
        for af in self._active:
            af.event.injector.recover(self.context, t)
            af.record.recovered_at = t
        self._active = []

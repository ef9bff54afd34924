"""Fault-schedule DSL: triggers, events, and schedules.

A :class:`FaultSchedule` is a declarative description of *when* faults
strike; the injectors in :mod:`repro.chaos.injectors` describe *what*
they do.  Three trigger shapes cover the scenarios the paper's
robustness claims imply (§4.1 noise tolerance, §5.5 input churn):

* :class:`AtTime` — a one-shot event at a fixed simulation time (the
  scripted "executor crash at t=120 s" scenario);
* :class:`Periodic` — repeated injection on a fixed period within a
  window (background churn, e.g. an executor crash every 10 minutes);
* :class:`RateAbove` — fires when the observed ingest rate crosses a
  threshold (faults correlated with load, e.g. a broker falling over
  under a traffic surge), with a cooldown so one sustained surge fires
  one event.

Triggers are pure descriptions: all mutable firing state lives in the
:class:`~repro.chaos.engine.ChaosEngine`, which keeps schedules reusable
across runs and replay deterministic.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Tuple

from .injectors import Injector


class Trigger(abc.ABC):
    """When a fault event fires."""

    reads_rate: ClassVar[bool] = True
    """Whether :meth:`fire_times` reads ``rate``.  The engine computes
    the trailing ingest rate only when some scheduled trigger does."""

    @abc.abstractmethod
    def fire_times(
        self, t0: float, t1: float, rate: float, last_fired: Optional[float]
    ) -> Tuple[float, ...]:
        """Firing times within the half-open window ``(t0, t1]``.

        ``rate`` is the currently observed ingest rate (records/second),
        or 0.0 when no trigger in the schedule reads it;
        ``last_fired`` is the previous firing time of this trigger, or
        None if it has never fired.
        """


@dataclass(frozen=True)
class AtTime(Trigger):
    """One-shot trigger at a fixed simulation time."""

    time: float
    reads_rate: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")

    def fire_times(
        self, t0: float, t1: float, rate: float, last_fired: Optional[float]
    ) -> Tuple[float, ...]:
        if last_fired is not None:
            return ()
        if t0 < self.time <= t1:
            return (self.time,)
        return ()


@dataclass(frozen=True)
class Periodic(Trigger):
    """Fire every ``period`` seconds, from ``start`` until ``end``."""

    period: float
    start: float = 0.0
    end: float = math.inf
    reads_rate: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ValueError("end must be after start")

    def fire_times(
        self, t0: float, t1: float, rate: float, last_fired: Optional[float]
    ) -> Tuple[float, ...]:
        if t1 < self.start:
            return ()
        if t0 < self.start:
            k = 0
        else:
            # smallest k with start + k*period > t0
            k = int(math.floor((t0 - self.start) / self.period)) + 1
        out: List[float] = []
        while True:
            t = self.start + k * self.period
            if t > t1 or t > self.end:
                break
            if last_fired is None or t > last_fired:
                out.append(t)
            k += 1
        return tuple(out)


@dataclass(frozen=True)
class RateAbove(Trigger):  # det: allow-unused: DESIGN.md §9 chaos DSL table
    """Fire when the observed ingest rate exceeds ``threshold``.

    ``cooldown`` seconds must elapse after a firing before the trigger
    can fire again, so one sustained surge injects one fault rather than
    one per batch boundary.
    """

    threshold: float
    cooldown: float = 120.0

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")

    def fire_times(
        self, t0: float, t1: float, rate: float, last_fired: Optional[float]
    ) -> Tuple[float, ...]:
        if rate <= self.threshold:
            return ()
        if last_fired is not None and t1 - last_fired < self.cooldown:
            return ()
        return (t1,)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: a trigger, an injector, and a duration.

    ``duration`` is how long the fault stays active before the engine
    calls the injector's ``recover``; ``None`` means the fault has no
    distinct recovery action (e.g. an executor crash whose healing is
    NoStop's own next configuration application).
    """

    name: str
    trigger: Trigger
    injector: Injector
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("event name must be non-empty")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable collection of fault events."""

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [e.name for e in self.events]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate event names in schedule: {sorted(names)}")

    @staticmethod
    def of(*events: FaultEvent) -> "FaultSchedule":
        return FaultSchedule(tuple(events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def names(self) -> Sequence[str]:
        return [e.name for e in self.events]

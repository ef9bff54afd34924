"""Chaos engineering for the simulated Spark Streaming stack.

Declarative fault schedules (:mod:`repro.chaos.events`) drive injectors
(:mod:`repro.chaos.injectors`) through a boundary-hooked engine
(:mod:`repro.chaos.engine`); :mod:`repro.chaos.runner` ties a schedule
to a NoStop experiment and :mod:`repro.chaos.report` serializes the
outcome deterministically.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "engine": ("ChaosEngine", "EventRecord"),
    "events": ("AtTime", "FaultEvent", "FaultSchedule", "Periodic"),
    "injectors": (
        "BrokerOutage", "DataSkewBurst", "DriverFailure", "ExecutorCrash",
        "Injector", "StragglerSlowdown",
    ),
    "report": ("ChaosReport", "build_event_outcomes"),
    "runner": ("run_chaos_scenario", "standard_chaos_schedule"),
})

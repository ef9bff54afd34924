"""Declarative SLOs over the streaming telemetry.

An :class:`SLO` names an objective ("delay p95 stays under 60 s"), a
severity, and where its signal comes from; the :class:`SLOEvaluator`
consumes the listener's per-batch stream *incrementally* (it subscribes
like any other listener observer) and renders :class:`SLOVerdict` rows
on demand.  Verdicts carry the simulated time of first violation, so a
run report can say "breached its delay SLO at t=340 s" rather than just
"failed".

Supported objectives:

* ``delay_p95``          — end-to-end delay p95 over the run (seconds);
* ``stability_ratio``    — fraction of batches violating the paper's
  stability condition (processing time > interval);
* ``scheduling_delay_max`` — worst batch scheduling delay (seconds);
* ``recovery_time``      — worst per-fault time-to-recover against the
  chaos engine's firing log (seconds; ``inf`` when never recovered);
* ``counter_max``        — ceiling on a metrics-registry counter/gauge
  value (e.g. dropped batches; a labeled family reads its total), read
  at verdict time.  A cataloged metric of another kind is rejected when
  the SLO is declared.

The evaluator is pure arithmetic over simulated timestamps — verdicts
are byte-deterministic for a given run.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.streaming.metrics import BatchInfo, percentile_sorted

from . import catalog

SEVERITIES = ("critical", "warning", "info")

OBJECTIVES = (
    "delay_p95",
    "stability_ratio",
    "scheduling_delay_max",
    "recovery_time",
    "counter_max",
)


@dataclass(frozen=True)
class SLO:
    """One service-level objective: a named threshold on a run signal."""

    name: str
    objective: str
    threshold: float
    severity: str = "warning"
    description: str = ""
    metric: str = ""
    """Registry metric name, only for ``counter_max`` objectives."""

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; expected one of "
                f"{OBJECTIVES}"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of "
                f"{SEVERITIES}"
            )
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if self.objective == "counter_max":
            if not self.metric:
                raise ValueError("counter_max SLOs need a registry metric name")
            spec = catalog.SPECS.get(self.metric)
            if spec is not None and spec.kind not in ("counter", "gauge"):
                raise ValueError(
                    f"counter_max reads one value, and {self.metric} is a "
                    f"{spec.kind}; name a counter or gauge"
                )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "objective": self.objective,
            "threshold": self.threshold,
            "severity": self.severity,
            "description": self.description,
            "metric": self.metric,
        }


@dataclass(frozen=True)
class SLOVerdict:
    """One SLO judged against one run."""

    slo: SLO
    value: float
    passed: bool
    violated_at: Optional[float] = None
    """Simulated time the running signal first crossed the threshold
    (None when the SLO held throughout)."""
    detail: str = ""

    @property
    def severity(self) -> str:
        return self.slo.severity

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo": self.slo.name,
            "objective": self.slo.objective,
            "severity": self.slo.severity,
            "threshold": self.slo.threshold,
            "value": None if not math.isfinite(self.value) else self.value,
            "passed": self.passed,
            "violatedAt": self.violated_at,
            "detail": self.detail,
        }


def default_slos() -> List[SLO]:
    """The stock objective set for judging a NoStop run.

    Critical thresholds are sized for an *optimization* run under chaos:
    SPSA deliberately probes bad configurations and the chaos engine
    deliberately breaks the substrate, so tails are wide by design; the
    critical line is "the run never left the rails" (bounded tails, every
    fault recovered, no mass data loss), while the tighter steady-state
    expectations ride along at warning severity, at half the critical
    thresholds.
    """
    return [
        SLO(
            name="delay-p95",
            objective="delay_p95",
            threshold=120.0,
            severity="critical",
            description="end-to-end delay p95 stays bounded over the run",
        ),
        SLO(
            name="delay-p95-steady",
            objective="delay_p95",
            threshold=60.0,
            severity="warning",
            description="steady-state expectation for the delay tail",
        ),
        SLO(
            name="stability-ratio",
            objective="stability_ratio",
            threshold=0.65,
            severity="critical",
            description=(
                "fraction of batches violating processing <= interval"
            ),
        ),
        SLO(
            name="stability-ratio-steady",
            objective="stability_ratio",
            threshold=0.325,
            severity="warning",
            description="steady-state expectation for stability violations",
        ),
        SLO(
            name="sched-delay-ceiling",
            objective="scheduling_delay_max",
            threshold=240.0,
            severity="critical",
            description="no batch waits longer than this to start",
        ),
        SLO(
            name="recovery-time",
            objective="recovery_time",
            threshold=600.0,
            severity="critical",
            description="every injected fault recovers within this window",
        ),
        SLO(
            name="no-mass-data-loss",
            objective="counter_max",
            threshold=500.0,
            severity="critical",
            metric="repro_streaming_batches_dropped_total",
            description="bounded-queue sheds stay below a mass-loss level",
        ),
    ]


class SLOEvaluator:
    """Incremental SLO evaluation over the listener's batch stream.

    Subscribe via :meth:`repro.streaming.listener.StreamingListener.watch`
    (or call :meth:`observe_batch` directly).  Running state is a sorted
    delay sample for the exact-percentile signal (one ``insort`` per
    batch, so the running p95 is an O(1) read) and counters for
    everything else.  First-violation times are detected *as the stream
    arrives*, i.e. at the batch whose completion pushed the running
    statistic over the threshold — not retro-fitted after the run.
    """

    def __init__(self, slos: Optional[Sequence[SLO]] = None) -> None:
        self.slos: List[SLO] = list(slos) if slos is not None else default_slos()
        names = [s.name for s in self.slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in spec: {names}")
        #: every end-to-end delay seen so far, kept sorted
        self._delays: List[float] = []
        self._batches = 0
        self._unstable = 0
        self._sched_max = 0.0
        #: slo name -> first simulated violation time
        self._violated_at: Dict[str, float] = {}

    # -- streaming interface -------------------------------------------------

    def observe_batch(self, info: BatchInfo) -> None:
        """Fold one completed batch into the running signals."""
        now = info.processing_end
        self._batches += 1
        insort(self._delays, float(info.end_to_end_delay))
        if not info.stable:
            self._unstable += 1
        self._sched_max = max(self._sched_max, info.scheduling_delay)

        for slo in self.slos:
            if slo.name in self._violated_at:
                continue
            value = self._running_value(slo)
            if value is not None and value > slo.threshold:
                self._violated_at[slo.name] = now

    def _running_value(self, slo: SLO) -> Optional[float]:
        if slo.objective == "delay_p95":
            return (
                percentile_sorted(self._delays, 0.95) if self._delays else None
            )
        if slo.objective == "stability_ratio":
            return self._unstable / self._batches if self._batches else None
        if slo.objective == "scheduling_delay_max":
            return self._sched_max if self._batches else None
        return None  # recovery_time / counter_max are end-of-run signals

    # -- verdicts ------------------------------------------------------------

    def verdicts(
        self,
        fault_mttrs: Optional[Sequence[Tuple[str, float]]] = None,
        registry=None,
    ) -> List[SLOVerdict]:
        """Judge every SLO against the stream observed so far.

        ``fault_mttrs`` supplies ``(fault_name, mttr_seconds)`` pairs for
        the ``recovery_time`` objective (from
        :func:`repro.analysis.chaos.time_to_recover` over the chaos
        engine's firing log); ``registry`` supplies the metrics registry
        for ``counter_max`` objectives.
        """
        out: List[SLOVerdict] = []
        for slo in self.slos:
            value, detail = self._final_value(slo, fault_mttrs, registry)
            if value is None:
                out.append(SLOVerdict(
                    slo=slo, value=0.0, passed=True,
                    detail="no signal observed",
                ))
                continue
            passed = value <= slo.threshold
            out.append(SLOVerdict(
                slo=slo,
                value=value,
                passed=passed,
                violated_at=self._violated_at.get(slo.name),
                detail=detail,
            ))
        return out

    def _final_value(
        self,
        slo: SLO,
        fault_mttrs: Optional[Sequence[Tuple[str, float]]],
        registry,
    ) -> Tuple[Optional[float], str]:
        if slo.objective == "recovery_time":
            if not fault_mttrs:
                return None, ""
            worst_name, worst = max(fault_mttrs, key=lambda p: p[1])
            detail = (
                f"worst fault: {worst_name}"
                if math.isfinite(worst)
                else f"{worst_name} never re-stabilized"
            )
            return worst, detail
        if slo.objective == "counter_max":
            if registry is None:
                return None, ""
            metric = registry.get(slo.metric)
            if metric is None:
                return None, f"metric {slo.metric} not registered"
            return float(metric.value), slo.metric
        value = self._running_value(slo)
        detail = f"over {self._batches} batches"
        return value, detail


def has_critical_breach(verdicts: Sequence[SLOVerdict]) -> bool:
    return any(not v.passed and v.severity == "critical" for v in verdicts)

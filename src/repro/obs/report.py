"""The run report: one artifact that judges a whole run.

:class:`RunJudge` is the online half — subscribe it to the streaming
listener (``listener.watch(judge)``) and it feeds every completed batch
through the SLO evaluator, the burn-rate alerter, and the delay/rate
anomaly detectors as the run executes.  :func:`build_run_report` is the
offline half — after the run it stitches the judge's verdicts together
with the SPSA watchdog's audit-trail scan, the span profiler's hotspot
attribution, and the chaos engine's fault log (joined to exact batch
traces, with MTTR and overshoot per fault) into a single
:class:`RunReport`.

The report renders three ways — terminal text, single-file HTML (zero
dependencies, inline CSS), and JSON — and all three are
**byte-deterministic** for a given (workload, seed, schedule): floats go
through fixed-precision formatting, iteration orders are explicit, and
no wall-clock value is embedded (wall-clock profiling prints separately,
see :class:`~repro.obs.profiler.WallClockProfiler`).
"""

from __future__ import annotations

import html as _html
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from . import catalog
from .alerts import Alert, BurnRateAlerter, BurnRatePolicy
from .audit import RuleFiring
from .critical import DelayBreakdown, analyze_spans, render_breakdown
from .detect import (
    AnomalyEvent,
    CusumDetector,
    EwmaMadDetector,
    SpsaWatchdog,
    WatchdogReport,
)
from .profiler import SpanProfile, profile_spans, render_hotspots
from .slo import (
    SLO,
    SLOEvaluator,
    SLOVerdict,
    has_critical_breach,
)
from .tracer import Telemetry

#: Renderings list at most this many anomaly rows (counts stay exact,
#: the JSON report always carries the full list).
MAX_ANOMALY_ROWS = 25


class RunJudge:
    """Online judgement: one observer folding each batch into every
    incremental signal (SLOs, burn rates, delay spikes, rate shifts).

    Attach with ``listener.watch(judge)`` before the run, or replay a
    recorded batch history through :meth:`observe_batch` afterwards —
    the two paths produce identical state.
    """

    def __init__(
        self,
        slos: Optional[Sequence[SLO]] = None,
        policies: Optional[List[BurnRatePolicy]] = None,
        delay_detector: Optional[EwmaMadDetector] = None,
        rate_detector: Optional[CusumDetector] = None,
    ) -> None:
        self.evaluator = SLOEvaluator(slos)
        self.alerter = BurnRateAlerter(policies)
        self.delay_detector = delay_detector or EwmaMadDetector()
        # The per-batch arrival-rate signal is noisier than CUSUM's
        # textbook setting assumes (held rate levels + catch-up batches
        # after backlog), so the judge decides at h=8 rather than the
        # class default h=4: a genuine regime shift still fires within
        # a couple of batches, transient excursions mostly don't.
        self.rate_detector = rate_detector or CusumDetector(h=8.0)
        self.batches = 0
        self.last_time = 0.0
        self._tracer = None

    def attach_tracer(self, tracer) -> None:
        """Let the judge drive the flight recorder's tail retention.

        Once attached, every batch that fires a burn-rate alert or trips
        a detector marks its own time window interesting, so the tracer
        keeps that batch's trace even when head sampling would have
        discarded it.
        """
        self._tracer = tracer

    def observe_batch(self, info) -> None:
        self.batches += 1
        self.last_time = max(self.last_time, info.processing_end)
        watch = self._tracer is not None and self._tracer.enabled
        if watch:
            alerts_before = len(self.alerter.log)
            events_before = len(self.delay_detector.events) + len(
                self.rate_detector.events
            )
        self.evaluator.observe_batch(info)
        self.alerter.observe_batch(info)
        self.delay_detector.observe(info.processing_end, info.end_to_end_delay)
        # Per-batch observed arrival rate: what CUSUM watches for shifts.
        self.rate_detector.observe(
            info.processing_end, info.records / info.interval
        )
        if watch:
            # The batch's root span covers [form start, job finish].
            lo = info.batch_time - info.interval
            hi = info.processing_end
            if len(self.alerter.log) > alerts_before:
                self._tracer.note_interest(lo, hi, "slo")
            events_after = len(self.delay_detector.events) + len(
                self.rate_detector.events
            )
            if events_after > events_before:
                self._tracer.note_interest(lo, hi, "anomaly")

    def anomalies(self) -> List[AnomalyEvent]:
        """Detector firings in time order (stable for equal times)."""
        events = list(self.delay_detector.events) + list(
            self.rate_detector.events
        )
        return sorted(events, key=lambda e: (e.time, e.kind))


@dataclass(frozen=True)
class FaultOutcome:
    """One chaos fault joined with its recovery metrics and trace."""

    event_id: int
    name: str
    kind: str
    fired_at: float
    mttr: float
    overshoot: Optional[float]
    trace_id: str = ""
    recover_trace_id: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "eventId": self.event_id,
            "name": self.name,
            "kind": self.kind,
            "firedAt": self.fired_at,
            "mttr": None if not math.isfinite(self.mttr) else self.mttr,
            "overshoot": self.overshoot,
            "traceId": self.trace_id,
            "recoverTraceId": self.recover_trace_id,
        }


@dataclass
class RunReport:
    """Everything needed to judge one run, in one deterministic object."""

    title: str
    workload: str
    seed: int
    rounds: int
    sim_duration: float
    batches: int
    records_total: int
    final_interval: float
    final_executors: int
    first_pause_round: Optional[int]
    resets: int
    verdicts: List[SLOVerdict] = field(default_factory=list)
    alerts: List[Alert] = field(default_factory=list)
    anomalies: List[AnomalyEvent] = field(default_factory=list)
    watchdog: WatchdogReport = field(default_factory=WatchdogReport)
    profile: Optional[SpanProfile] = None
    faults: List[FaultOutcome] = field(default_factory=list)
    orphan_fault_events: int = 0
    rule_firings: List[RuleFiring] = field(default_factory=list)
    decisions: int = 0
    guarded_decisions: int = 0
    rate_shift_agreement: Optional[bool] = None
    """CUSUM vs NoStop's §5.5 restart rule: did they reach the same
    conclusion about whether the input rate shifted?  None when neither
    signal was available (no audit trail)."""
    resources: Dict[str, float] = field(default_factory=dict)
    """Sweep-runner/supervisor resource counters captured from the
    metrics registry (cache hits, retries, journal replays, ...) —
    empty when the run did no sweep work."""
    breakdown: Optional[DelayBreakdown] = None
    """Critical-path delay decomposition over the retained traces —
    where the end-to-end delay went (ingest / queue / schedule /
    execute), split per configuration epoch.  None when the flight
    recorder kept no decomposable traces."""

    @property
    def critical_breach(self) -> bool:
        return has_critical_breach(self.verdicts)

    @property
    def all_anomalies(self) -> List[AnomalyEvent]:
        """Detector + watchdog events, detectors first."""
        return list(self.anomalies) + list(self.watchdog.events)

    def _anomaly_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for ev in self.all_anomalies:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return dict(sorted(counts.items()))

    def alerts_during_faults(self) -> List[Alert]:
        """Alerts whose active period overlaps any fault's outage window."""
        out: List[Alert] = []
        for alert in self.alerts:
            resolved = (
                alert.resolved_at
                if alert.resolved_at is not None
                else math.inf
            )
            for fault in self.faults:
                fault_end = fault.fired_at + (
                    fault.mttr if math.isfinite(fault.mttr) else math.inf
                )
                if alert.fired_at <= fault_end and resolved >= fault.fired_at:
                    out.append(alert)
                    break
        return out

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "title": self.title,
            "workload": self.workload,
            "seed": self.seed,
            "rounds": self.rounds,
            "simDuration": self.sim_duration,
            "batches": self.batches,
            "recordsTotal": self.records_total,
            "finalInterval": self.final_interval,
            "finalExecutors": self.final_executors,
            "firstPauseRound": self.first_pause_round,
            "resets": self.resets,
            "criticalBreach": self.critical_breach,
            "sloVerdicts": [v.to_dict() for v in self.verdicts],
            "alerts": [a.to_dict() for a in self.alerts],
            "anomalies": [e.to_dict() for e in self.all_anomalies],
            "watchdog": {
                "roundsScanned": self.watchdog.rounds_scanned,
                "signFlipFraction": self.watchdog.sign_flip_fraction,
                "stepClipFraction": self.watchdog.step_clip_fraction,
                "probeClipFraction": self.watchdog.probe_clip_fraction,
            },
            "profile": self.profile.to_dict() if self.profile else None,
            "faults": [f.to_dict() for f in self.faults],
            "orphanFaultEvents": self.orphan_fault_events,
            "ruleFirings": [f.to_dict() for f in self.rule_firings],
            "decisions": self.decisions,
            "guardedDecisions": self.guarded_decisions,
            "rateShiftAgreement": self.rate_shift_agreement,
            "resources": dict(sorted(self.resources.items())),
            "breakdown": (
                self.breakdown.to_dict() if self.breakdown else None
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    # -- terminal rendering --------------------------------------------------

    def render_text(self) -> str:
        out: List[str] = []
        out.append(f"== {self.title} ==")
        out.append(
            f"workload={self.workload} seed={self.seed} rounds={self.rounds}"
        )
        pause = (
            f"paused at round {self.first_pause_round}"
            if self.first_pause_round is not None
            else "never paused"
        )
        out.append(
            f"run: {self.batches} batches, {self.records_total} records, "
            f"{self.sim_duration:.1f} s simulated; "
            f"final config {self.final_interval:.2f} s x "
            f"{self.final_executors} executors; {pause}; "
            f"resets={self.resets}"
        )

        out.append("")
        out.append("-- SLO verdicts --")
        for v in self.verdicts:
            mark = "PASS" if v.passed else "FAIL"
            value = f"{v.value:.3f}" if math.isfinite(v.value) else "inf"
            line = (
                f"  {mark} [{v.severity:>8}] {v.slo.name}: "
                f"{value} vs <= {v.slo.threshold:g}"
            )
            if v.violated_at is not None:
                line += f" (violated at t={v.violated_at:.1f}s)"
            if v.detail:
                line += f"  # {v.detail}"
            out.append(line)

        out.append("")
        out.append(f"-- burn-rate alerts ({len(self.alerts)}) --")
        during = {id(a) for a in self.alerts_during_faults()}
        for a in self.alerts:
            resolved = (
                f"{a.resolved_at:.1f}" if a.resolved_at is not None else "active"
            )
            tag = "  [during fault]" if id(a) in during else ""
            out.append(
                f"  {a.policy} [{a.severity}] fired t={a.fired_at:.1f}s "
                f"resolved t={resolved}s "
                f"(burn fast={a.fast_burn:.1f}x slow={a.slow_burn:.1f}x)"
                f"{tag}"
            )
        if not self.alerts:
            out.append("  (none)")

        out.append("")
        counts = self._anomaly_counts()
        by_kind = " ".join(f"{k}={n}" for k, n in counts.items())
        out.append(
            f"-- anomalies ({len(self.all_anomalies)}"
            + (f": {by_kind}" if counts else "")
            + ") --"
        )
        shown = self.all_anomalies[:MAX_ANOMALY_ROWS]
        for e in shown:
            out.append(
                f"  {e.kind} t={e.time:.1f}s value={e.value:.3f} "
                f"score={e.score:.2f} (> {e.threshold:g})  {e.detail}"
            )
        hidden = len(self.all_anomalies) - len(shown)
        if hidden:
            out.append(f"  (... {hidden} more, see the JSON report)")
        if not self.all_anomalies:
            out.append("  (none)")

        if self.profile is not None:
            out.append("")
            out.append("-- simulated-time hotspots --")
            out.extend(
                "  " + line
                for line in render_hotspots(self.profile).splitlines()
            )

        out.append("")
        out.append("-- where the delay went (critical path) --")
        if self.breakdown is not None and self.breakdown.traces:
            out.extend(
                "  " + line
                for line in render_breakdown(self.breakdown).splitlines()
            )
        else:
            out.append("  (no batch traces retained)")

        out.append("")
        out.append(f"-- chaos faults ({len(self.faults)}) --")
        for f in self.faults:
            mttr = f"{f.mttr:.1f}s" if math.isfinite(f.mttr) else "never"
            over = (
                f"{f.overshoot:.1f}s" if f.overshoot is not None else "n/a"
            )
            out.append(
                f"  #{f.event_id} {f.name} [{f.kind}] fired t={f.fired_at:.1f}s "
                f"mttr={mttr} overshoot={over} trace={f.trace_id or '-'}"
            )
        if not self.faults:
            out.append("  (none)")
        if self.orphan_fault_events:
            out.append(
                f"  ({self.orphan_fault_events} fault event(s) had no "
                f"matching trace span)"
            )

        out.append("")
        out.append("-- resources --")
        if self.resources:
            for name, value in sorted(self.resources.items()):
                out.append(f"  {name} = {value:g}")
        else:
            out.append("  (no sweep activity)")

        out.append("")
        out.append("-- SPSA --")
        out.append(
            f"  decisions={self.decisions} guarded={self.guarded_decisions} "
            f"(watchdog scanned {self.watchdog.rounds_scanned}: "
            f"sign-flip {self.watchdog.sign_flip_fraction:.0%}, "
            f"step-clip {self.watchdog.step_clip_fraction:.0%})"
        )
        for f in self.rule_firings:
            out.append(
                f"  rule {f.kind} @ round {f.round_index} "
                f"t={f.sim_time:.1f}s: {f.detail}"
            )
        if self.rate_shift_agreement is not None:
            cusum_fired = any(
                e.kind == "rate_shift" for e in self.anomalies
            )
            out.append(
                f"  rate-shift cross-check: CUSUM "
                f"{'fired' if cusum_fired else 'quiet'}, NoStop resets="
                f"{self.resets} -> "
                f"{'AGREE' if self.rate_shift_agreement else 'DISAGREE'}"
            )

        out.append("")
        if self.critical_breach:
            broken = [
                v.slo.name
                for v in self.verdicts
                if not v.passed and v.severity == "critical"
            ]
            out.append(f"verdict: CRITICAL BREACH ({', '.join(broken)})")
        else:
            out.append("verdict: OK (no critical SLO breach)")
        return "\n".join(out)

    # -- HTML rendering ------------------------------------------------------

    def render_html(self) -> str:
        e = _html.escape

        def table(headers: List[str], rows: List[List[str]], cls: str = "") -> str:
            head = "".join(f"<th>{e(h)}</th>" for h in headers)
            body = "".join(
                "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
                for row in rows
            )
            return (
                f'<table class="{cls}"><thead><tr>{head}</tr></thead>'
                f"<tbody>{body}</tbody></table>"
            )

        def badge(ok: bool, yes: str = "PASS", no: str = "FAIL") -> str:
            cls = "ok" if ok else "bad"
            return f'<span class="badge {cls}">{yes if ok else no}</span>'

        slo_rows = []
        for v in self.verdicts:
            value = f"{v.value:.3f}" if math.isfinite(v.value) else "&infin;"
            violated = (
                f"t={v.violated_at:.1f}s" if v.violated_at is not None else "—"
            )
            slo_rows.append([
                badge(v.passed),
                e(v.slo.name),
                e(v.severity),
                value,
                f"&le; {v.slo.threshold:g}",
                violated,
                e(v.detail),
            ])

        during = {id(a) for a in self.alerts_during_faults()}
        alert_rows = []
        for a in self.alerts:
            resolved = (
                f"{a.resolved_at:.1f}" if a.resolved_at is not None else "active"
            )
            alert_rows.append([
                e(a.policy),
                e(a.severity),
                f"{a.fired_at:.1f}",
                resolved,
                f"{a.fast_burn:.1f}&times;",
                f"{a.slow_burn:.1f}&times;",
                "yes" if id(a) in during else "—",
            ])

        anomaly_rows = [
            [
                e(ev.kind),
                f"{ev.time:.1f}",
                f"{ev.value:.3f}",
                f"{ev.score:.2f}",
                f"{ev.threshold:g}",
                e(ev.detail),
            ]
            for ev in self.all_anomalies[:MAX_ANOMALY_ROWS]
        ]
        hidden_anomalies = len(self.all_anomalies) - len(anomaly_rows)

        hotspot_rows = []
        if self.profile is not None:
            for c in self.profile.hotspots(len(self.profile.components)):
                hotspot_rows.append([
                    e(c.name),
                    f"{c.total:.3f}",
                    str(c.count),
                    f"{c.mean:.3f}",
                    f"{c.max:.3f}",
                    f"{c.share:.1%}",
                ])

        epoch_rows = []
        if self.breakdown is not None:
            for ep in self.breakdown.epochs:
                config = (
                    f"{ep.interval:.2f} s &times; {ep.executors}"
                    if ep.interval is not None and ep.executors is not None
                    else "—"
                )
                top = ", ".join(
                    f"{s.name} {s.share:.0%}" for s in ep.critical[:3]
                )
                row = [str(ep.index), config, str(ep.traces)]
                row.extend(
                    f"{s.total:.3f} ({s.share:.0%})" for s in ep.segments
                )
                row.append(e(top) if top else "—")
                epoch_rows.append(row)

        fault_rows = []
        for f in self.faults:
            mttr = f"{f.mttr:.1f}" if math.isfinite(f.mttr) else "never"
            over = f"{f.overshoot:.1f}" if f.overshoot is not None else "n/a"
            fault_rows.append([
                str(f.event_id),
                e(f.name),
                e(f.kind),
                f"{f.fired_at:.1f}",
                mttr,
                over,
                e(f.trace_id or "—"),
                e(f.recover_trace_id or "—"),
            ])

        firing_rows = [
            [e(f.kind), str(f.round_index), f"{f.sim_time:.1f}", e(f.detail)]
            for f in self.rule_firings
        ]

        pause = (
            f"paused at round {self.first_pause_round}"
            if self.first_pause_round is not None
            else "never paused"
        )
        agreement = ""
        if self.rate_shift_agreement is not None:
            agreement = (
                "<p>rate-shift cross-check (CUSUM vs &sect;5.5 restart): "
                + badge(self.rate_shift_agreement, "AGREE", "DISAGREE")
                + "</p>"
            )
        proc = (
            f"{self.profile.processing_total:.3f}"
            if self.profile is not None
            else "0.000"
        )

        parts = [
            "<!DOCTYPE html>",
            '<html lang="en"><head><meta charset="utf-8">',
            f"<title>{e(self.title)}</title>",
            "<style>",
            "body{font:14px/1.5 -apple-system,Segoe UI,sans-serif;"
            "margin:2rem auto;max-width:70rem;padding:0 1rem;color:#1a1a2e}",
            "h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem;"
            "border-bottom:1px solid #ddd;padding-bottom:.25rem}",
            "table{border-collapse:collapse;width:100%;margin:.5rem 0}",
            "th,td{border:1px solid #e2e2ea;padding:.3rem .6rem;"
            "text-align:left;font-variant-numeric:tabular-nums}",
            "th{background:#f6f6fa}",
            ".badge{padding:.05rem .45rem;border-radius:.6rem;"
            "font-size:.8rem;font-weight:600}",
            ".badge.ok{background:#e3f6e8;color:#116329}",
            ".badge.bad{background:#fde8e8;color:#b42318}",
            ".meta{color:#555}",
            "</style></head><body>",
            f"<h1>{e(self.title)} "
            + badge(not self.critical_breach, "OK", "CRITICAL BREACH")
            + "</h1>",
            f'<p class="meta">workload <b>{e(self.workload)}</b> · '
            f"seed {self.seed} · {self.rounds} rounds · "
            f"{self.batches} batches · {self.records_total} records · "
            f"{self.sim_duration:.1f} s simulated · final config "
            f"{self.final_interval:.2f} s &times; {self.final_executors} "
            f"executors · {e(pause)} · resets={self.resets}</p>",
            "<h2>SLO verdicts</h2>",
            table(
                ["", "SLO", "severity", "value", "threshold",
                 "first violated", "detail"],
                slo_rows,
            ),
            f"<h2>Burn-rate alerts ({len(self.alerts)})</h2>",
            table(
                ["policy", "severity", "fired (s)", "resolved (s)",
                 "fast burn", "slow burn", "during fault"],
                alert_rows,
            ) if alert_rows else "<p>(none)</p>",
            f"<h2>Anomalies ({len(self.all_anomalies)})</h2>",
            table(
                ["kind", "t (s)", "value", "score", "threshold", "detail"],
                anomaly_rows,
            ) if anomaly_rows else "<p>(none)</p>",
            (
                f'<p class="meta">&hellip; {hidden_anomalies} more '
                "(see the JSON report)</p>"
                if hidden_anomalies
                else ""
            ),
            "<h2>Simulated-time hotspots</h2>",
            table(
                ["component", "total (s)", "count", "mean (s)", "max (s)",
                 "share"],
                hotspot_rows,
            ) if hotspot_rows else "<p>(no spans profiled)</p>",
            f'<p class="meta">schedule + execute = {proc} s '
            "(total batch processing time)</p>",
            "<h2>Where the delay went (critical path)</h2>",
            table(
                ["epoch", "config", "traces", "ingest", "queue",
                 "schedule", "execute", "critical-path time"],
                epoch_rows,
            ) if epoch_rows else "<p>(no batch traces retained)</p>",
            (
                f'<p class="meta">{self.breakdown.traces} traces '
                f"({self.breakdown.complete} complete, "
                f"{self.breakdown.dropped} dropped, "
                f"{self.breakdown.partial} partial); max tiling residual "
                f"{self.breakdown.max_tiling_residual:.2e} s</p>"
                if self.breakdown is not None and self.breakdown.traces
                else ""
            ),
            f"<h2>Chaos faults ({len(self.faults)})</h2>",
            table(
                ["#", "fault", "kind", "fired (s)", "MTTR (s)",
                 "overshoot (s)", "trace", "recovery trace"],
                fault_rows,
            ) if fault_rows else "<p>(none)</p>",
            (
                f'<p class="meta">{self.orphan_fault_events} fault event(s) '
                "had no matching trace span</p>"
                if self.orphan_fault_events
                else ""
            ),
            "<h2>Resources</h2>",
            table(
                ["counter", "value"],
                [
                    [e(name), f"{value:g}"]
                    for name, value in sorted(self.resources.items())
                ],
            ) if self.resources else "<p>(no sweep activity)</p>",
            "<h2>SPSA</h2>",
            f"<p>{self.decisions} decisions ({self.guarded_decisions} "
            f"guarded); watchdog scanned {self.watchdog.rounds_scanned} "
            f"rounds: sign-flip {self.watchdog.sign_flip_fraction:.0%}, "
            f"step-clip {self.watchdog.step_clip_fraction:.0%}</p>",
            table(
                ["rule", "round", "t (s)", "detail"], firing_rows
            ) if firing_rows else "<p>(no rule firings)</p>",
            agreement,
            "</body></html>",
        ]
        return "\n".join(p for p in parts if p)


def build_run_report(
    judge: RunJudge,
    telemetry: Telemetry,
    *,
    title: str = "NoStop run report",
    workload: str = "",
    seed: int = 0,
    rounds: int = 0,
    nostop_report=None,
    events: Optional[Sequence] = None,
    sim_duration: float = 0.0,
    records_total: int = 0,
    watchdog: Optional[SpsaWatchdog] = None,
) -> RunReport:
    """Stitch one run's signals into a :class:`RunReport`.

    ``judge`` holds the incremental verdicts (attach it to the listener
    before the run); ``telemetry`` supplies spans, metrics, and the audit
    trail; ``events`` (the chaos runner's
    :class:`~repro.chaos.report.EventOutcome` list, MTTR and overshoot
    already measured) are joined to their traces.  ``nostop_report``
    fills the optimizer-side summary.
    """
    from repro.analysis.chaos import join_faults_to_traces

    judge.alerter.finish(judge.last_time)

    # Settle the flight recorder's tail retention before reading spans:
    # the fault join and the critical-path decomposition should both see
    # the final retained set.  ``finalize_all`` is idempotent, so callers
    # that already finalized (or run with tracing disabled) are
    # unaffected.
    telemetry.tracer.finalize_all()

    # Per-fault recovery metrics + trace join.
    faults: List[FaultOutcome] = []
    orphans = 0
    mttr_pairs = []
    if events:
        join = join_faults_to_traces(
            telemetry.tracer.spans, records=[e.record for e in events]
        )
        orphans = join.orphans
        by_event = {j.event_id: j for j in join}
        for event in events:
            rec = event.record
            j = by_event.get(rec.event_id)
            faults.append(FaultOutcome(
                event_id=rec.event_id,
                name=rec.name,
                kind=rec.kind,
                fired_at=rec.fired_at,
                mttr=event.mttr,
                overshoot=event.overshoot,
                trace_id=j.trace_id if j is not None else "",
                recover_trace_id=(
                    j.recover_trace_id if j is not None else None
                ),
            ))
            mttr_pairs.append((rec.name, event.mttr))

    verdicts = judge.evaluator.verdicts(
        fault_mttrs=mttr_pairs or None, registry=telemetry.metrics
    )

    # Sweep-runner/supervisor resource accounting: whatever of the
    # runner-side counters this run's registry saw.  The name list is
    # enumerated from the catalog (not a hand-maintained tuple), so a
    # newly cataloged runner counter shows up here automatically.  A
    # judged chaos run with no sweep activity reports an empty section,
    # deterministically.
    resources: Dict[str, float] = {}
    for metric_name in catalog.names(
        subsystem=("runner", "supervisor"), kind="counter"
    ):
        metric = telemetry.metrics.get(metric_name)
        if metric is not None:
            resources[metric_name] = float(metric.value)

    spans = telemetry.tracer.spans
    breakdown = analyze_spans(spans) if spans else None

    profile = profile_spans(spans)
    wd_report = (watchdog or SpsaWatchdog()).scan(telemetry.audit)

    resets = sum(1 for f in telemetry.audit.firings if f.kind == "reset")
    cusum_fired = bool(judge.rate_detector.events)
    agreement: Optional[bool] = None
    if telemetry.audit.enabled:
        agreement = cusum_fired == (resets > 0)

    first_pause = None
    final_interval = 0.0
    final_executors = 0
    report_resets = resets
    if nostop_report is not None:
        first_pause = nostop_report.first_pause_round
        final_interval = nostop_report.final_interval
        final_executors = nostop_report.final_executors
        report_resets = nostop_report.resets

    return RunReport(
        title=title,
        workload=workload,
        seed=seed,
        rounds=rounds,
        sim_duration=sim_duration,
        batches=judge.batches,
        records_total=records_total,
        final_interval=final_interval,
        final_executors=final_executors,
        first_pause_round=first_pause,
        resets=report_resets,
        verdicts=verdicts,
        alerts=list(judge.alerter.log),
        anomalies=judge.anomalies(),
        watchdog=wd_report,
        profile=profile,
        faults=faults,
        orphan_fault_events=orphans,
        rule_firings=list(telemetry.audit.firings),
        decisions=len(telemetry.audit.decisions),
        guarded_decisions=sum(
            1 for d in telemetry.audit.decisions if d.guarded
        ),
        rate_shift_agreement=agreement,
        resources=resources,
        breakdown=breakdown,
    )

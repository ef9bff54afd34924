"""The run report: one artifact that judges a whole run.

:class:`RunJudge` is the online half — subscribe it to the streaming
listener (``listener.watch(judge)``) and it feeds every completed batch
through the SLO evaluator, the burn-rate alerter, and the delay/rate
anomaly detectors as the run executes.  :func:`build_run_report` is the
offline half — after the run it stitches the judge's verdicts together
with the SPSA watchdog's audit-trail scan, the critical-path delay
decomposition, and the chaos engine's fault log (joined to exact batch
traces, with MTTR and overshoot per fault) into a single
:class:`RunReport`.

:meth:`RunReport.to_dict` is the report's data and :meth:`RunReport.to_json`
writes it.  :meth:`RunReport.sections` turns that data into one ordered
list of :class:`Section` values, and the two human views only lay the
list out: :meth:`RunReport.render_text` for the terminal and
:meth:`RunReport.render_html` as one self-contained HTML file.  All
three are **byte-deterministic** for a given (workload, seed, schedule):
floats go through fixed-precision formatting, iteration orders are
explicit, and no wall-clock value is embedded.
"""

from __future__ import annotations

import html as _html
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import catalog
from .alerts import Alert, BurnRateAlerter
from .audit import RuleFiring
from .critical import DelayBreakdown, analyze_spans
from .detect import (
    AnomalyEvent,
    CusumDetector,
    EwmaMadDetector,
    SpsaWatchdog,
    WatchdogReport,
)
from .slo import (
    SLOEvaluator,
    SLOVerdict,
    has_critical_breach,
)
from .tracer import Telemetry

#: Renderings list at most this many anomaly rows (counts stay exact,
#: the JSON report always carries the full list).
MAX_ANOMALY_ROWS = 25


@dataclass(frozen=True)
class Section:
    """One block of the report, the same in every view.

    ``rows`` are formatted cell strings under ``headers``; a view shows
    ``empty`` in place of a table with no rows, then the ``notes``.
    """

    title: str
    headers: Tuple[str, ...] = ()
    rows: Tuple[Tuple[str, ...], ...] = ()
    empty: str = "(none)"
    notes: Tuple[str, ...] = ()


def section_text(section: Section) -> str:
    """A section as terminal text: ``-- title --``, then the table in
    aligned columns (or the empty-state text) and the notes, indented."""
    lines = [f"-- {section.title} --"]
    if section.rows:
        table = [section.headers, *section.rows]
        widths = [max(len(row[i]) for row in table)
                  for i in range(len(section.headers))]
        lines += [
            "  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            for row in table
        ]
    else:
        lines.append(f"  {section.empty}")
    lines += [f"  {note}" for note in section.notes]
    return "\n".join(lines)


def breakdown_section(data: Optional[Dict]) -> Section:
    """Where the delay went, from ``DelayBreakdown.to_dict()``: one
    run-wide row, then one row per configuration epoch.  Each segment
    cell is its total seconds and its share of the row's time."""
    title = "where the delay went (critical path)"
    if not data or not data["traces"]:
        return Section(title, empty="(no batch traces retained)")

    def row(label: str, config: str, part: Dict) -> Tuple[str, ...]:
        top = ", ".join(
            f"{s['name']} {s['share']:.0%}" for s in part["critical"][:3]
        )
        return (
            label, config, str(part["traces"]), str(part["complete"]),
            *(f"{s['total']:.3f} ({s['share']:.1%})"
              for s in part["segments"]),
            top or "-",
        )

    rows = [row("run", "-", data)]
    for ep in data["epochs"]:
        config = (
            f"{ep['interval']:.2f} s x {ep['executors']}"
            if ep["interval"] is not None and ep["executors"] is not None
            else "-"
        )
        rows.append(row(str(ep["index"]), config, ep))
    return Section(
        title,
        ("epoch", "config", "traces", "complete",
         *(f"{s['name']} (s)" for s in data["segments"]), "critical path"),
        tuple(rows),
        notes=(
            f"{data['traces']} batch traces ({data['complete']} complete, "
            f"{data['dropped']} dropped, {data['partial']} partial); max "
            f"tiling residual {data['maxTilingResidual']:.2e} s",
        ),
    )


def _or_dash(value, fmt: str, missing: str = "-") -> str:
    return missing if value is None else fmt.format(value)


class RunJudge:
    """Online judgement: one observer folding each batch into every
    incremental signal (SLOs, burn rates, delay spikes, rate shifts).

    Attach with ``listener.watch(judge)`` before the run, or replay a
    recorded batch history through :meth:`observe_batch` afterwards —
    the two paths produce identical state.
    """

    def __init__(self) -> None:
        self.evaluator = SLOEvaluator()
        self.alerter = BurnRateAlerter()
        self.delay_detector = EwmaMadDetector()
        self.rate_detector = CusumDetector()
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

    # -- the document --------------------------------------------------------

    def sections(self) -> List[Section]:
        """The report as one ordered list of sections, built from
        :meth:`to_dict`: the head (title and run summary) first, the
        verdict line last.  Every rendering lays out this list."""
        d = self.to_dict()
        pause = (
            f"paused at round {d['firstPauseRound']}"
            if d["firstPauseRound"] is not None
            else "never paused"
        )
        head = Section(d["title"], notes=(
            f"workload={d['workload']} seed={d['seed']} rounds={d['rounds']}",
            f"run: {d['batches']} batches, {d['recordsTotal']} records, "
            f"{d['simDuration']:.1f} s simulated; final config "
            f"{d['finalInterval']:.2f} s x {d['finalExecutors']} executors; "
            f"{pause}; resets={d['resets']}",
        ))

        verdicts = d["sloVerdicts"]
        slos = Section(
            "SLO verdicts",
            ("result", "SLO", "severity", "value", "threshold",
             "first violated", "detail"),
            tuple(
                (
                    "PASS" if v["passed"] else "FAIL",
                    v["slo"],
                    v["severity"],
                    "inf" if v["value"] is None else f"{v['value']:.3f}",
                    f"<= {v['threshold']:g}",
                    _or_dash(v["violatedAt"], "t={:.1f}s"),
                    v["detail"],
                )
                for v in verdicts
            ),
        )

        during = {id(a) for a in self.alerts_during_faults()}
        alerts = Section(
            f"burn-rate alerts ({len(d['alerts'])})",
            ("policy", "severity", "fired (s)", "resolved (s)", "fast burn",
             "slow burn", "during fault"),
            tuple(
                (
                    a["policy"],
                    a["severity"],
                    f"{a['firedAt']:.1f}",
                    _or_dash(a["resolvedAt"], "{:.1f}", "active"),
                    f"{a['fastBurn']:.1f}x",
                    f"{a['slowBurn']:.1f}x",
                    "yes" if id(alert) in during else "-",
                )
                for a, alert in zip(d["alerts"], self.alerts)
            ),
        )

        events = d["anomalies"]
        counts: Dict[str, int] = {}
        for ev in events:
            counts[ev["kind"]] = counts.get(ev["kind"], 0) + 1
        by_kind = " ".join(f"{k}={n}" for k, n in sorted(counts.items()))
        hidden = len(events) - MAX_ANOMALY_ROWS
        anomalies = Section(
            f"anomalies ({len(events)}" + (f": {by_kind})" if events else ")"),
            ("kind", "t (s)", "value", "score", "threshold", "detail"),
            tuple(
                (
                    ev["kind"],
                    f"{ev['time']:.1f}",
                    f"{ev['value']:.3f}",
                    f"{ev['score']:.2f}",
                    f"{ev['threshold']:g}",
                    ev["detail"],
                )
                for ev in events[:MAX_ANOMALY_ROWS]
            ),
            notes=(
                (f"(... {hidden} more, see the JSON report)",)
                if hidden > 0 else ()
            ),
        )

        faults = Section(
            f"chaos faults ({len(d['faults'])})",
            ("#", "fault", "kind", "fired (s)", "MTTR (s)", "overshoot (s)",
             "trace", "recovery trace"),
            tuple(
                (
                    str(f["eventId"]),
                    f["name"],
                    f["kind"],
                    f"{f['firedAt']:.1f}",
                    _or_dash(f["mttr"], "{:.1f}", "never"),
                    _or_dash(f["overshoot"], "{:.1f}", "n/a"),
                    f["traceId"] or "-",
                    f["recoverTraceId"] or "-",
                )
                for f in d["faults"]
            ),
            notes=(
                (f"({d['orphanFaultEvents']} fault event(s) had no matching "
                 "trace span)",)
                if d["orphanFaultEvents"] else ()
            ),
        )

        resources = Section(
            "resources",
            ("counter", "value"),
            tuple((name, f"{value:g}") for name, value in d["resources"].items()),
            empty="(no sweep activity)",
        )

        wd = d["watchdog"]
        spsa_notes = [
            f"decisions={d['decisions']} guarded={d['guardedDecisions']} "
            f"(watchdog scanned {wd['roundsScanned']}: "
            f"sign-flip {wd['signFlipFraction']:.0%}, "
            f"step-clip {wd['stepClipFraction']:.0%})"
        ]
        if d["rateShiftAgreement"] is not None:
            cusum = any(ev["kind"] == "rate_shift" for ev in events)
            spsa_notes.append(
                f"rate-shift cross-check: CUSUM "
                f"{'fired' if cusum else 'quiet'}, NoStop resets="
                f"{d['resets']} -> "
                f"{'AGREE' if d['rateShiftAgreement'] else 'DISAGREE'}"
            )
        spsa = Section(
            "SPSA",
            ("rule", "round", "t (s)", "detail"),
            tuple(
                (f["kind"], str(f["round"]), f"{f['simTime']:.1f}",
                 f["detail"])
                for f in d["ruleFirings"]
            ),
            empty="(no rule firings)",
            notes=tuple(spsa_notes),
        )

        broken = [
            v["slo"] for v in verdicts
            if not v["passed"] and v["severity"] == "critical"
        ]
        verdict = Section(
            f"verdict: CRITICAL BREACH ({', '.join(broken)})"
            if d["criticalBreach"]
            else "verdict: OK (no critical SLO breach)"
        )
        return [
            head, slos, alerts, anomalies, breakdown_section(d["breakdown"]),
            faults, resources, spsa, verdict,
        ]

    # -- views ---------------------------------------------------------------

    def render_text(self) -> str:
        head, *body, verdict = self.sections()
        lines = [f"== {head.title} ==", *head.notes]
        for section in body:
            lines += ["", section_text(section)]
        lines += ["", verdict.title]
        return "\n".join(lines)

    def render_html(self) -> str:
        e = _html.escape
        head, *body, verdict = self.sections()
        parts = [
            "<!DOCTYPE html>",
            '<html lang="en"><head><meta charset="utf-8">',
            f"<title>{e(head.title)}</title>",
            "<style>",
            "body{font:14px/1.5 -apple-system,Segoe UI,sans-serif;"
            "margin:2rem auto;max-width:70rem;padding:0 1rem;color:#1a1a2e}",
            "h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem;"
            "border-bottom:1px solid #ddd;padding-bottom:.25rem}",
            "table{border-collapse:collapse;width:100%;margin:.5rem 0}",
            "th,td{border:1px solid #e2e2ea;padding:.3rem .6rem;"
            "text-align:left;font-variant-numeric:tabular-nums}",
            "th{background:#f6f6fa}",
            ".meta{color:#555}",
            "</style></head><body>",
            f"<h1>{e(head.title)}</h1>",
        ]
        parts += [f'<p class="meta">{e(note)}</p>' for note in head.notes]
        for section in body:
            parts.append(f"<h2>{e(section.title)}</h2>")
            if section.rows:
                header = "".join(f"<th>{e(h)}</th>" for h in section.headers)
                rows = "".join(
                    "<tr>" + "".join(f"<td>{e(c)}</td>" for c in row)
                    + "</tr>"
                    for row in section.rows
                )
                parts.append(
                    f"<table><thead><tr>{header}</tr></thead>"
                    f"<tbody>{rows}</tbody></table>"
                )
            else:
                parts.append(f"<p>{e(section.empty)}</p>")
            parts += [
                f'<p class="meta">{e(note)}</p>' for note in section.notes
            ]
        parts += [f"<p><b>{e(verdict.title)}</b></p>", "</body></html>"]
        return "\n".join(parts)


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
    wd_report = SpsaWatchdog().scan(telemetry.audit)

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

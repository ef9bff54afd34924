"""Property-based tests: the judge's running state matches a recount.

``SLOEvaluator`` keeps its delay sample sorted as batches arrive,
``BurnRateAlerter`` keeps a running bad count per window, and the
tracer finds the first overlapping interest window through an index.
Each suite drives the incremental code and a reference that recomputes
from scratch on every batch (a full re-sort, a recount of each window,
a scan of every window in insertion order) and asserts identical output.
"""

import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.alerts import (
    Alert,
    BurnRateAlerter,
    BurnRatePolicy,
    _Window,
    delay_above,
    unstable_batch,
)
from repro.obs.slo import SLO, SLOEvaluator
from repro.obs.tracer import RETAIN_CHAOS, RETAIN_SAMPLED, Tracer, _InterestIndex
from repro.streaming.metrics import percentile

from ..obs.helpers import make_batch

# Small grids make ties, exact window edges and equal delays common.
_gaps = st.sampled_from([0.0, 0.5, 1.0, 2.5, 10.0, 30.0, 60.0, 61.0, 600.0])
_proc = st.one_of(
    st.sampled_from([0.0, 5.0, 10.0, 10.5, 40.0]),
    st.floats(0.0, 200.0, allow_nan=False),
)
_sched = st.one_of(
    st.sampled_from([0.0, 30.0]),
    st.floats(0.0, 300.0, allow_nan=False),
)


@st.composite
def batch_streams(draw, max_size=60):
    n = draw(st.integers(1, max_size))
    t = 0.0
    out = []
    for i in range(n):
        t += draw(_gaps)
        out.append(make_batch(
            i, batch_time=t, processing_time=draw(_proc),
            scheduling_delay=draw(_sched),
        ))
    return out


# -- SLOEvaluator ------------------------------------------------------------


class _ResortingEvaluator(SLOEvaluator):
    """The evaluator as it was: append each delay, re-sort per query."""

    def observe_batch(self, info):
        now = info.processing_end
        self._batches += 1
        self._delays.append(info.end_to_end_delay)
        if not info.stable:
            self._unstable += 1
        self._sched_max = max(self._sched_max, info.scheduling_delay)
        for slo in self.slos:
            if slo.name in self._violated_at:
                continue
            value = self._running_value(slo)
            if value is not None and value > slo.threshold:
                self._violated_at[slo.name] = now

    def _running_value(self, slo):
        if slo.objective == "delay_p95":
            return percentile(self._delays, 0.95) if self._delays else None
        return super()._running_value(slo)


def _slos(thresholds):
    return [
        SLO(name=f"p95-{i}", objective="delay_p95", threshold=th)
        for i, th in enumerate(thresholds)
    ] + [
        SLO(name="stab", objective="stability_ratio", threshold=0.3),
        SLO(name="sched", objective="scheduling_delay_max", threshold=100.0),
    ]


class TestSLOEvaluator:
    @settings(max_examples=200, deadline=None)
    @given(
        batches=batch_streams(),
        thresholds=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=3),
    )
    def test_matches_a_full_resort_on_every_batch(self, batches, thresholds):
        fast = SLOEvaluator(_slos(thresholds))
        ref = _ResortingEvaluator(_slos(thresholds))
        for info in batches:
            fast.observe_batch(info)
            ref.observe_batch(info)
            for slo in fast.slos:
                assert fast._running_value(slo) == ref._running_value(slo)
            assert [v.to_dict() for v in fast.verdicts()] == [
                v.to_dict() for v in ref.verdicts()
            ]


# -- BurnRateAlerter ---------------------------------------------------------


class _RecountingAlerter:
    """The alerter as it was: plain deques, each window recounted."""

    def __init__(self, policies):
        self.policies = list(policies)
        self._windows = {p.name: (deque(), deque()) for p in self.policies}
        self._active = {}
        self.log = []

    @staticmethod
    def _burn(samples, budget):
        if not samples:
            return 0.0
        bad = sum(1 for _, is_bad in samples if is_bad)
        return (bad / len(samples)) / budget

    def observe_batch(self, info):
        now = info.processing_end
        fired = []
        for policy in self.policies:
            fast, slow = self._windows[policy.name]
            is_bad = bool(policy.classifier(info))
            fast.append((now, is_bad))
            slow.append((now, is_bad))
            while fast and fast[0][0] < now - policy.fast_window:
                fast.popleft()
            while slow and slow[0][0] < now - policy.slow_window:
                slow.popleft()
            fast_burn = self._burn(fast, policy.budget)
            slow_burn = self._burn(slow, policy.budget)
            active = self._active.get(policy.name)
            if active is None:
                if (fast_burn >= policy.fast_burn
                        and slow_burn >= policy.slow_burn):
                    alert = Alert(
                        policy=policy.name, severity=policy.severity,
                        fired_at=now, fast_burn=fast_burn,
                        slow_burn=slow_burn,
                    )
                    self._active[policy.name] = alert
                    self.log.append(alert)
                    fired.append(alert)
            elif fast_burn < policy.fast_burn:
                active.resolved_at = now
                del self._active[policy.name]
        return fired


@st.composite
def policies(draw):
    fast = draw(st.sampled_from([10.0, 30.0, 60.0]))
    slow = fast * draw(st.sampled_from([1.0, 2.0, 10.0]))
    return [
        BurnRatePolicy(
            name="stability", target=draw(st.sampled_from([0.5, 0.9, 0.99])),
            classifier=unstable_batch, fast_window=fast, slow_window=slow,
            fast_burn=draw(st.sampled_from([1.0, 2.0, 6.0])),
            slow_burn=draw(st.sampled_from([0.5, 1.0, 3.0])),
        ),
        BurnRatePolicy(
            name="delay", target=0.9, classifier=delay_above(60.0),
            fast_window=fast, slow_window=slow,
        ),
    ]


class TestBurnRateAlerter:
    @settings(max_examples=200, deadline=None)
    @given(batches=batch_streams(), rules=policies())
    def test_log_matches_a_recount_of_each_window(self, batches, rules):
        fast = BurnRateAlerter(rules)
        ref = _RecountingAlerter(rules)
        for info in batches:
            fired = fast.observe_batch(info)
            assert [a.to_dict() for a in fired] == [
                a.to_dict() for a in ref.observe_batch(info)
            ]
            assert [a.to_dict() for a in fast.log] == [
                a.to_dict() for a in ref.log
            ]

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(st.tuples(_gaps, st.booleans()), min_size=1,
                         max_size=80),
        span=st.sampled_from([0.5, 10.0, 60.0, 600.0]),
    )
    def test_window_bad_fraction_matches_a_recount(self, samples, span):
        window = _Window(span)
        ref = deque()
        now = 0.0
        for gap, is_bad in samples:
            now += gap
            fraction = window.push(now, is_bad)
            ref.append((now, is_bad))
            while ref and ref[0][0] < now - span:
                ref.popleft()
            assert list(window.samples) == list(ref)
            assert fraction == _RecountingAlerter._burn(ref, 1.0)


# -- tracer retention --------------------------------------------------------


def _scan(windows, lo, hi):
    for w_lo, w_hi, reason in windows:
        if w_lo <= hi and w_hi >= lo:
            return reason
    return None


class _ScanningTracer(Tracer):
    """The tracer as it was: every span's events and every window scanned."""

    def _retention_reason(self, root, spans, head, forced):
        if forced is not None:
            return forced
        if self.retain_interesting:
            for s in spans:
                for ev in s.events:
                    if ev.name.startswith("chaos."):
                        return RETAIN_CHAOS
            lo = root.start
            hi = root.end if root.end is not None else root.start
            for s in spans:
                lo = min(lo, s.start)
                hi = max(hi, s.start if s.end is None else s.end)
            reason = _scan(self.interest_windows, lo, hi)
            if reason is not None:
                return reason
        return RETAIN_SAMPLED if head else None


_times = st.one_of(
    st.integers(0, 40).map(float),
    st.floats(-10.0, 50.0, allow_nan=False),
)
_bounds = st.one_of(
    _times,
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
_reasons = st.sampled_from(["slo", "anomaly", "reconfig", "pause", "chaos"])


class TestInterestIndex:
    @settings(max_examples=300, deadline=None)
    @given(
        windows=st.lists(st.tuples(_bounds, _bounds, _reasons), max_size=70),
        queries=st.lists(st.tuples(_bounds, _bounds), min_size=1,
                         max_size=20),
    )
    def test_first_overlap_matches_a_scan(self, windows, queries):
        # Raw windows, so reversed and NaN bounds reach the index too.
        index = _InterestIndex()
        for n, window in enumerate(windows):
            index.append(window)
            for lo, hi in queries:
                assert index.first_overlap(lo, hi) == _scan(
                    windows[:n + 1], lo, hi
                )
        for lo, hi in queries:
            assert index.first_overlap(lo, hi) == _scan(windows, lo, hi)


@st.composite
def tracer_scripts(draw):
    """Interleaved interest windows and batch-shaped traces."""
    ops = []
    for i in range(draw(st.integers(1, 40))):
        if draw(st.booleans()):
            ops.append(("interest", draw(_times), draw(_times),
                        draw(_reasons)))
        else:
            start = draw(_times)
            children = draw(st.lists(
                st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
                max_size=3,
            ))
            event = draw(st.sampled_from([None, "chaos.inject", "dropped"]))
            ops.append(("trace", f"batch-{i:04d}", start,
                        draw(st.floats(0.0, 5.0)), children, event))
    return ops


def _replay(tracer, script):
    kept = []
    tracer.on_retained = lambda tid, spans, reason: kept.append((tid, reason))
    for op in script:
        if op[0] == "interest":
            tracer.note_interest(*op[1:])
            continue
        _, tid, start, length, children, event = op
        root = tracer.start_trace("batch", trace_id=tid, start=start)
        for offset, dur in children:
            child = tracer.start_span("stage", root, start=start + offset)
            child.finish(start + offset + dur)
            if event is not None:
                child.add_event(event, start + offset)
        root.finish(start + length)
    tracer.finalize_all()
    return kept, tracer.retained_by_reason, tracer.evicted_by_reason


class TestTracerRetention:
    @settings(max_examples=200, deadline=None)
    @given(script=tracer_scripts(), rate=st.sampled_from([1, 3, 1_000_000]))
    def test_retention_matches_the_linear_scan(self, script, rate):
        assert _replay(Tracer(sample_rate=rate), script) == _replay(
            _ScanningTracer(sample_rate=rate), script
        )

"""Property-based tests: the tuner probe path matches numpy, bit for bit.

Every tuner evaluation summarizes a short window of batches
(``MetricsCollector.summarize``), folds the result into the pause rule
(``PauseRule``) and maps θ to a configuration
(``theta_to_configuration``).  These run once per probe, so they skip
``np.mean``/``np.std`` for the reduction those functions perform, keep
one merged record per θ instead of regrouping the history, and read
their vectors as Python lists.  Each suite here drives the code and a
reference that does it the old way (``np.mean`` and ``np.std`` on
lists, a full regroup of the history on every read, numpy scalar
indexing) and asserts identical output, bit for bit.
"""

import json
import struct
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adjust import theta_to_configuration
from repro.core.bounds import (
    full_parameter_space,
    multi_parameter_space,
    paper_configuration_space,
)
from repro.core.metrics_collector import MetricsCollector
from repro.core.pause import STABILITY_MARGIN, EvaluatedConfig, PauseRule


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# Magnitudes spread over six decades make the summation order visible:
# numpy's pairwise sum leaves its plain loop at 8 terms.
_seconds = st.one_of(
    st.floats(0.0, 1e4, allow_nan=False),
    st.builds(
        lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-3, 3)
    ),
)
# Above 2**53 the int→float64 cast rounds, so an integer sum differs.
_records = st.one_of(st.integers(0, 5_000_000), st.integers(0, 2**58))


# -- MetricsCollector.summarize ----------------------------------------------


@st.composite
def windows(draw):
    n = draw(st.integers(1, 15))
    return [
        SimpleNamespace(
            processing_time=draw(_seconds),
            end_to_end_delay=draw(_seconds),
            scheduling_delay=draw(_seconds),
            records=draw(_records),
        )
        for _ in range(n)
    ]


class TestSummarize:
    @settings(max_examples=300, deadline=None)
    @given(windows())
    def test_matches_numpy_mean_and_std(self, batches):
        m = MetricsCollector().summarize(batches)
        proc = [b.processing_time for b in batches]
        expected = {
            "mean_processing_time": np.mean(proc),
            "mean_end_to_end_delay": np.mean(
                [b.end_to_end_delay for b in batches]
            ),
            "mean_scheduling_delay": np.mean(
                [b.scheduling_delay for b in batches]
            ),
            "mean_records": np.mean([b.records for b in batches]),
            "std_processing_time": np.std(proc),
        }
        for field, value in expected.items():
            got = getattr(m, field)
            assert type(got) is float, field
            assert _bits(got) == _bits(float(value)), (field, got, value)
        assert m.batches_used == len(batches)


# -- PauseRule ---------------------------------------------------------------


def _reference_grouped(history):
    """The pause rule's regroup of the whole history, as it was written
    before it kept one merged record per θ."""
    groups = {}
    for e in history:
        groups.setdefault(e.theta, []).append(e)
    merged = []
    for theta, evals in groups.items():
        if len(evals) == 1:
            merged.append(evals[0])
            continue
        proc = float(np.mean([e.mean_processing_time for e in evals]))
        interval = evals[-1].batch_interval
        if interval > 0:
            stable = proc <= interval * (1.0 - STABILITY_MARGIN)
        else:
            stable = sum(e.stable for e in evals) * 2 > len(evals)
        merged.append(
            EvaluatedConfig(
                theta=theta,
                objective=float(np.mean([e.objective for e in evals])),
                end_to_end_delay=float(
                    np.mean([e.end_to_end_delay for e in evals])
                ),
                iteration=max(e.iteration for e in evals),
                batch_interval=interval,
                num_executors=evals[-1].num_executors,
                mean_processing_time=proc,
                stable=stable,
            )
        )
    return merged


def _reference_ranked(history):
    return sorted(_reference_grouped(history), key=lambda e: e.sort_key)


def _reference_should_pause(history, n_best, threshold):
    grouped = _reference_grouped(history)
    if len(grouped) < n_best:
        return False
    ranked = sorted(grouped, key=lambda e: e.sort_key)[:n_best]
    delays = np.array([e.end_to_end_delay for e in ranked])
    return bool(np.std(delays) < threshold)


def _reference_restore(state):
    return [
        EvaluatedConfig(
            theta=tuple(float(v) for v in d["theta"]),
            objective=float(d["objective"]),
            end_to_end_delay=float(d["endToEndDelay"]),
            iteration=int(d["iteration"]),
            batch_interval=float(d["batchInterval"]),
            num_executors=int(d["numExecutors"]),
            mean_processing_time=float(d["meanProcessingTime"]),
            stable=bool(d["stable"]),
        )
        for d in state
    ]


# Three θs make repeats (and 8+ measurements of one θ) common; equal
# objectives make ties that only the θ tiebreak resolves.
_thetas = st.sampled_from([(1.0, 2.0), (1.0, 2.5), (7.25, 20.0)])
_record_ops = st.builds(
    lambda theta, objective, delay, proc, interval, stable, it, ex: (
        "record",
        EvaluatedConfig(
            theta=theta, objective=objective, end_to_end_delay=delay,
            iteration=it, batch_interval=interval, num_executors=ex,
            mean_processing_time=proc, stable=stable,
        ),
    ),
    _thetas,
    st.one_of(st.sampled_from([3.0, 5.5]), _seconds),
    _seconds,
    _seconds,
    st.sampled_from([0.0, 2.0, 10.0, 60.0]),
    st.booleans(),
    st.integers(0, 50),
    st.integers(1, 16),
)


@st.composite
def rule_ops(draw):
    """Runs of records, each ended by a reset or a checkpoint/restore.

    Run lengths are drawn outright: a plain list strategy stays short,
    and a θ needs eight measurements before numpy's pairwise sum
    leaves its plain loop.
    """
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        ops += [draw(_record_ops) for _ in range(draw(st.integers(0, 30)))]
        ops.append((draw(st.sampled_from(["reset", "restore"])), None))
    return ops


class TestPauseRule:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=rule_ops(),
        n_best=st.integers(2, 4),
        threshold=st.sampled_from([0.5, 1.0, 50.0, 1e3]),
    )
    def test_matches_a_regroup_of_the_history(self, ops, n_best, threshold):
        rule_cls = type("DrawnRule", (PauseRule,), {"STD_THRESHOLD": threshold})
        # ``wide`` sees the same operations and ranks more configurations
        # than any run records, so its ``best()`` is the whole ranking.
        rule, wide = rule_cls(n_best=n_best), rule_cls(n_best=1000)
        history = []
        for kind, evaluated in ops:
            if kind == "record":
                rule.record(evaluated)
                wide.record(evaluated)
                history.append(evaluated)
            elif kind == "reset":
                rule.reset()
                wide.reset()
                history = []
            else:  # checkpoint, then restore into fresh rules
                state = json.loads(json.dumps(rule.checkpoint()))
                rule, wide = rule_cls(n_best=n_best), rule_cls(n_best=1000)
                rule.restore(state)
                wide.restore(state)
                history = _reference_restore(state)

            ranked = _reference_ranked(history)
            assert rule.evaluations == len(history)
            assert rule.best() == ranked[:n_best]
            assert wide.best() == ranked
            if history:
                assert rule.best_config() == ranked[0]
                theta = history[-1].theta
                assert rule.measurement_count(theta) == sum(
                    e.theta == theta for e in history
                )
            assert rule.should_pause() is _reference_should_pause(
                history, n_best, threshold
            )


# -- theta_to_configuration --------------------------------------------------


def _reference_configuration(theta_scaled, scaler):
    """``theta_to_configuration`` as it read numpy scalars axis by axis."""
    physical = scaler.to_physical(np.asarray(theta_scaled, dtype=float))
    lo, hi = scaler.physical.lower, scaler.physical.upper
    interval = round(float(physical[0]), 3)
    interval = min(max(interval, float(lo[0])), float(hi[0]))
    out = [interval]
    for axis in range(1, len(physical)):
        value = int(round(float(physical[axis])))
        value = min(max(value, int(round(lo[axis]))), int(round(hi[axis])))
        out.append(value)
    return tuple(out)


_SPACES = [
    paper_configuration_space(),
    multi_parameter_space(),
    full_parameter_space(),
]


@st.composite
def spaces_and_thetas(draw):
    scaler = draw(st.sampled_from(_SPACES))
    lo = scaler.scaled.lower.tolist()
    hi = scaler.scaled.upper.tolist()
    theta = [
        draw(st.one_of(
            st.sampled_from([a, b]),  # on an edge
            st.floats(a, b),  # in the box
            st.floats(a - 10.0, b + 10.0),  # possibly outside it
        ))
        for a, b in zip(lo, hi)
    ]
    return scaler, theta


class TestThetaToConfiguration:
    @settings(max_examples=300, deadline=None)
    @given(spaces_and_thetas())
    def test_matches_the_numpy_scalar_reading(self, case):
        scaler, theta = case
        got = theta_to_configuration(theta, scaler)
        expected = _reference_configuration(theta, scaler)
        assert got == expected
        assert [type(v) for v in got] == [type(v) for v in expected]
        assert _bits(got[0]) == _bits(expected[0])

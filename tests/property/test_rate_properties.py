"""Property-based tests for array rate lookups and block integration.

The fast tier integrates a whole prefetch block of record counts in one
array pass.  These properties pin that pass to the per-point and
per-interval definitions it replaces, bit for bit.
"""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.rates import (
    ConstantRate,
    RateTrace,
    SineRate,
    SpikeRate,
    StepRate,
    TraceRate,
    UniformRandomRate,
    _integrate_cells,
    _midpoint_integrals,
)
from repro.fast.engine import greedy_assignment

#: One representative trace per RateTrace subclass (SpikeRate twice: over
#: a closed-form base and over a piecewise-random one).
TRACES = {
    "constant": ConstantRate(150_000.0),
    "uniform": UniformRandomRate(110_000, 190_000, hold=7.5, seed=4),
    "step": StepRate(((0.0, 110_000.0), (600.0, 190_000.0), (1300.5, 5.0))),
    "sine": SineRate(150_000.0, 37_500.0, 300.0),
    "spike": SpikeRate(ConstantRate(150_000.0), spikes=((400.0, 700.0, 1.8),)),
    "spike-uniform": SpikeRate(
        UniformRandomRate(7_000, 13_000, hold=10.0, seed=2),
        spikes=((300.0, math.inf, 1.5), (310.0, 320.25, 0.5)),
    ),
    "trace": TraceRate([9_000.0, 12_500.0, 7_250.0, 11_000.0], dt=0.7),
}

#: The traces without a closed-form ``records_between``.
GENERIC = ("step", "sine", "spike", "spike-uniform", "trace")

times = st.floats(0.0, 2000.0, allow_nan=False, allow_infinity=False)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _reference_integral(trace: RateTrace, t0: float, t1: float) -> float:
    """The per-interval midpoint integral, point by point."""
    n = max(1, int(math.ceil((t1 - t0) / 0.25)))
    edges = np.linspace(t0, t1, n + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    rates = np.array([trace.rate(float(m)) for m in mids])
    return float(np.sum(rates * np.diff(edges)))


def test_every_subclass_is_covered():
    covered = {type(t) for t in TRACES.values()}
    assert set(RateTrace.__subclasses__()) <= covered


class TestArrayRates:
    @given(name=st.sampled_from(sorted(TRACES)), ts=st.lists(times, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_rates_equal_rate_bitwise(self, name, ts):
        trace = TRACES[name]
        got = trace.rates(np.asarray(ts, dtype=float))
        assert got.shape == (len(ts),)
        assert _bits(got) == _bits([trace.rate(t) for t in ts])

    @given(
        name=st.sampled_from(sorted(TRACES)),
        ts=st.lists(times, min_size=6, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_rates_keep_2d_shape(self, name, ts):
        trace = TRACES[name]
        grid = np.asarray(ts).reshape(2, 3)
        got = trace.rates(grid)
        assert got.shape == (2, 3)
        assert _bits(got) == _bits([[trace.rate(t) for t in row] for row in grid])


class TestBlockIntegration:
    @given(
        name=st.sampled_from(sorted(TRACES)),
        t0=st.floats(0.0, 900.0),
        cells=st.integers(1, 200),
        jitter=st.sampled_from([0.0, 0.0, 1e-3, 0.37]),
        k=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_block_equals_per_interval(self, name, t0, cells, jitter, k):
        # Widths on the 0.25 s grid make float rounding of the edges
        # t0 + i * interval move some rows' cell count by one.
        interval = cells * 0.25 + jitter
        trace = TRACES[name]
        edges = [t0 + i * interval for i in range(k + 1)]
        block = trace.records_in(edges[:-1], edges[1:])
        assert block == [
            trace.records_between(a, b) for a, b in zip(edges, edges[1:])
        ]

    @given(
        name=st.sampled_from(GENERIC),
        t0=st.floats(0.0, 900.0),
        cells=st.integers(9, 120),
        k=st.integers(2, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_block_integrals_match_reference_bitwise(self, name, t0, cells, k):
        # Unrounded sums: a 2-D sum(axis=1) changes their last bits.
        interval = cells * 0.25
        trace = TRACES[name]
        edges = np.array([t0 + i * interval for i in range(k + 1)])
        got = _midpoint_integrals(trace, edges[:-1], edges[1:])
        want = [
            _reference_integral(trace, a, b)
            for a, b in zip(edges[:-1].tolist(), edges[1:].tolist())
        ]
        assert _bits(got) == _bits(want)

    def test_rounding_splits_a_block_into_cell_counts(self):
        trace = TRACES["sine"]
        t0, interval, k = 0.1, 10.0, 200
        edges = [t0 + i * interval for i in range(k + 1)]
        cells = {
            math.ceil((b - a) / 0.25) for a, b in zip(edges, edges[1:])
        }
        assert len(cells) > 1
        got = _midpoint_integrals(
            trace, np.array(edges[:-1]), np.array(edges[1:])
        )
        want = [
            _reference_integral(trace, a, b) for a, b in zip(edges, edges[1:])
        ]
        assert _bits(got) == _bits(want)

    @given(
        hold=st.sampled_from([10.0, 7.5, 2.5, 0.3]),
        segment=st.integers(0, 400),
        offset=st.sampled_from([0.0, 1e-9, -1e-9, 0.5, -0.5]),
        widths=st.sampled_from([1.0, 1 / 3, 2.5, 1 - 1e-9, 1 + 1e-9, 0.0]),
        k=st.integers(1, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_uniform_block_straddles_segment_edges(
        self, hold, segment, offset, widths, k
    ):
        # Boundaries on, just before and just after the held segments'
        # edges; intervals shorter, longer and equal to one hold.
        trace = UniformRandomRate(7_000, 13_000, hold=hold, seed=segment % 5)
        t0 = max(0.0, segment * hold + offset)
        interval = widths * hold
        edges = [t0 + i * interval for i in range(k + 1)]
        assert trace.records_in(edges[:-1], edges[1:]) == [
            trace.records_between(a, b) for a, b in zip(edges, edges[1:])
        ]

    def test_uniform_block_takes_the_array_path(self, monkeypatch):
        trace = TRACES["uniform"]
        edges = [3.75 + i * 10.0 for i in range(41)]
        want = [trace.records_between(a, b) for a, b in zip(edges, edges[1:])]

        def per_interval(self, t0, t1):
            raise AssertionError("records_in fell back to records_between")

        monkeypatch.setattr(UniformRandomRate, "records_between", per_interval)
        assert trace.records_in(edges[:-1], edges[1:]) == want

    def test_empty_intervals_hold_no_records(self):
        trace = TRACES["step"]
        assert trace.records_in([5.0, 7.0, 9.0], [5.0, 9.0, 9.0]) == [
            0, trace.records_between(7.0, 9.0), 0,
        ]


#: Times on the 0.25 s grid, anywhere, and near the traces' edges.
tick_starts = st.one_of(
    st.integers(0, 8000).map(lambda k: k * 0.25),
    times,
    st.builds(
        lambda edge, offset: max(0.0, edge + offset),
        st.sampled_from([0.7, 2.1, 300.0, 310.0, 320.25, 400.0, 600.0]),
        st.floats(-2.0, 2.0),
    ),
)

#: Interval widths: on the grid, jittered off it, and tiny.
tick_widths = st.one_of(
    st.integers(1, 7).map(lambda k: k * 0.25),
    st.floats(1e-6, 1.75),
    st.floats(1e-12, 1e-3),
)


class TestShortIntegration:
    """One interval of 1 to 7 cells integrates in plain floats."""

    @given(
        name=st.sampled_from(GENERIC),
        t0=tick_starts,
        width=tick_widths,
        n=st.integers(1, 7),
    )
    @settings(max_examples=300, deadline=None)
    def test_short_form_equals_array_form_bitwise(self, name, t0, width, n):
        trace = TRACES[name]
        t1 = t0 + width
        short = _integrate_cells(trace, t0, width, t1, n)
        block = _integrate_cells(
            trace, np.array([[t0]]), np.array([[width]]), np.array([t1]), n
        )
        assert type(short[0]) is float
        assert _bits(short) == _bits(block)

    @pytest.mark.parametrize(
        "width, array_calls", [(1.0, 0), (1.75, 0), (1.75 + 1e-9, 1), (1.76, 1)]
    )
    def test_eight_cells_take_the_array_form(
        self, monkeypatch, width, array_calls
    ):
        calls = []

        def rates(self, ts):
            calls.append(np.shape(ts))
            return RateTrace.rates(self, ts)

        monkeypatch.setattr(SineRate, "rates", rates)
        trace = TRACES["sine"]
        got = trace.records_between(100.0, 100.0 + width)
        assert len(calls) == array_calls
        assert got == round(_reference_integral(trace, 100.0, 100.0 + width))


def _heap_assignment(per_task, tasks):
    heap = [(0.0, c) for c in range(len(per_task))]
    out = []
    for _ in range(tasks):
        t, c = heapq.heappop(heap)
        out.append(c)
        heapq.heappush(heap, (t + per_task[c], c))
    return out


class TestGreedyAssignment:
    @given(
        per_task=st.lists(
            st.sampled_from([0.0105, 0.011, 0.0159, 0.0231, 0.5]),
            min_size=1, max_size=30,
        ),
        extra=st.integers(1, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_scalar_heap(self, per_task, extra):
        tasks = len(per_task) + extra
        got = greedy_assignment(np.asarray(per_task), tasks)
        assert got.tolist() == _heap_assignment(per_task, tasks)

"""Input data-rate traces.

The paper evaluates NoStop under *time-varying* input rates: the external
data generator "sends data items at a random rate within a certain range"
(§6.2.2, Fig. 5), with per-workload bands of [7k,13k] (LR), [80k,120k]
(LinReg), [110k,190k] (WordCount) and [170k,230k] (Page Analyze) records
per second.  Rate traces here are deterministic functions of time given a
seed, so experiments are reproducible; all rates are in records/second.

Traces compose: :class:`SpikeRate` wraps another trace to inject traffic
surges (the E-commerce-promotion scenario of §5.5 that triggers NoStop's
coefficient reset).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


#: Cell width (seconds) of the generic midpoint integration, and the
#: most cells it builds at once.
_CELL = 0.25
_CHUNK_CELLS = 4096
#: Fewest cells numpy's ``add.reduce`` sums pairwise; below this it adds
#: left to right, which plain Python floats can repeat exactly.
_PAIRWISE_CELLS = 8


class RateTrace(abc.ABC):
    """A records-per-second arrival rate as a function of time."""

    @abc.abstractmethod
    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at simulation time ``t`` (>= 0)."""

    def rates(self, ts: np.ndarray) -> np.ndarray:
        """``rate(t)`` at every point of ``ts`` (any shape), exactly.

        The default evaluates point by point; piecewise-constant traces
        override it with an array lookup that returns the same floats.
        """
        ts = np.asarray(ts, dtype=float)
        return np.array(
            [self.rate(t) for t in ts.ravel().tolist()], dtype=float
        ).reshape(ts.shape)

    def records_between(self, t0: float, t1: float) -> int:
        """Number of records arriving in ``[t0, t1)``.

        Default implementation: the midpoint rule over 0.25 s cells
        (:func:`_integrate_cells`), rounded half to even; subclasses
        with closed forms override this.
        """
        if t1 < t0:
            raise ValueError(f"t1 ({t1}) must be >= t0 ({t0})")
        if t1 == t0:
            return 0
        width = t1 - t0
        cells = math.ceil(width / _CELL)
        return int(round(_integrate_cells(self, t0, width, t1, cells)[0]))

    def records_in(
        self, starts: Sequence[float], ends: Sequence[float]
    ) -> List[int]:
        """``records_between(a, b)`` for every pair of ``starts``/``ends``.

        Bit-identical to the scalar calls.  Traces with a closed-form
        ``records_between`` answer interval by interval; the others
        share one array pass of the midpoint integration.
        """
        if type(self).records_between is not RateTrace.records_between:
            return [self.records_between(a, b) for a, b in zip(starts, ends)]
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if np.any(ends < starts):
            raise ValueError("every interval needs end >= start")
        sums = _midpoint_integrals(self, starts, ends)
        return np.rint(sums).astype(np.int64).tolist()

    def constant_until(self, t: float) -> float:
        """Latest time up to which the rate is known constant from ``t``.

        Producers in count-only mode use this to materialize arrivals in
        one segment per constant-rate span instead of one per tick.
        Returning ``t`` (the conservative default for traces without a
        closed form, e.g. :class:`SineRate`) disables the fast path and
        falls back to tick-by-tick production.
        """
        return t


def _integrate_cells(
    trace: RateTrace,
    start: float | np.ndarray,
    width: float | np.ndarray,
    end: float | np.ndarray,
    n: int,
) -> List[float]:
    """Midpoint-rule integrals over intervals that split into ``n`` cells.

    The one integration routine.  ``start``, ``width`` and ``end`` are
    floats (one interval) or a column, a column and a row of a block.
    Each interval splits into ``n`` equal cells and integrates to
    ``sum(rate(mid) * cell width)``.  Cell edges are ``start + j *
    (width / n)`` with the last edge pinned to ``end`` — elementwise the
    arithmetic of ``np.linspace(start, end, n + 1)``.  Each row is summed
    as its own 1-D array: a 2-D ``sum(axis=1)`` may add in a different
    order and change the last bits.

    One interval of fewer than ``_PAIRWISE_CELLS`` cells (every 1 s
    production tick) runs the same float operations in plain Python:
    ``rate`` equals ``rates`` bitwise, and ``add.reduce`` adds so few
    elements left to right from the first.  Numpy's per-call overhead
    would cost more than the arithmetic.
    """
    if n < _PAIRWISE_CELLS and not isinstance(start, np.ndarray):
        step = width / n
        edges = [j * step + start for j in range(n)] + [end]
        rate = trace.rate
        cells = [rate((a + b) / 2.0) * (b - a) for a, b in zip(edges, edges[1:])]
        # Not ``sum``: from Python 3.12 it compensates float rounding.
        total = cells[0]
        for cell in cells[1:]:
            total += cell
        return [total]
    edges = np.arange(n + 1.0) * (width / n) + start
    edges[..., n] = end
    mids = (edges[..., :-1] + edges[..., 1:]) / 2.0
    weighted = trace.rates(mids) * (edges[..., 1:] - edges[..., :-1])
    if weighted.ndim == 1:
        return [np.add.reduce(weighted)]
    return [np.add.reduce(row) for row in weighted]


def _midpoint_integrals(
    trace: RateTrace, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """:func:`_integrate_cells` over a block of intervals.

    Intervals are grouped by cell count ``ceil(width / _CELL)`` — float
    rounding of the interval ends can give equal-looking intervals
    different counts — and integrated at most ``_CHUNK_CELLS`` cells at
    a time.  Empty intervals integrate to 0.
    """
    widths = ends - starts
    cells = np.ceil(widths / _CELL).astype(np.intp)
    sums = np.zeros(cells.shape[0])
    for n in set(cells.tolist()) - {0}:
        rows = np.flatnonzero(cells == n)
        step = max(1, _CHUNK_CELLS // n)
        for lo in range(0, rows.shape[0], step):
            part = rows[lo:lo + step]
            sums[part] = _integrate_cells(
                trace, starts[part, None], widths[part, None], ends[part], n
            )
    return sums


@dataclass(frozen=True)
class ConstantRate(RateTrace):
    """Fixed arrival rate — the unrealistic case prior work assumes."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"rate must be >= 0, got {self.value}")

    def rate(self, t: float) -> float:
        return self.value

    def rates(self, ts: np.ndarray) -> np.ndarray:
        return np.full(np.shape(ts), self.value, dtype=float)

    def records_between(self, t0: float, t1: float) -> int:
        if t1 < t0:
            raise ValueError(f"t1 ({t1}) must be >= t0 ({t0})")
        return int(round(self.value * (t1 - t0)))

    def constant_until(self, t: float) -> float:
        return math.inf


#: Process-wide memo of segment draws: one ``{idx: rate}`` table per band
#: ``(seed, lo, hi)``, capped at ``_SEGMENT_MEMO_MAX`` entries.  A draw is
#: a pure function of its band and index, so sharing across trace
#: instances is sound — and matters: a sweep builds the same band trace
#: for the optimize cell and every measurement cell of a repeat, and an
#: exact-vs-fast comparison builds it twice; each ``default_rng((seed,
#: idx))`` construction costs ~25µs, which dominates fast-tier runs.
_SEGMENT_MEMO: dict = {}
_SEGMENT_MEMO_MAX = 1 << 20


class UniformRandomRate(RateTrace):
    """Piecewise-constant rate resampled uniformly in ``[lo, hi]``.

    This is the paper's §6.2.2 generator: every ``hold`` seconds a new
    rate is drawn uniformly at random within the band.  Draws are keyed by
    segment index so that ``rate(t)`` is a pure function of ``t``.
    """

    def __init__(self, lo: float, hi: float, hold: float = 10.0, seed: int = 0) -> None:
        if lo < 0 or hi < lo:
            raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
        if hold <= 0:
            raise ValueError(f"hold must be positive, got {hold}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.hold = float(hold)
        self.seed = int(seed)

    def _segment_rate(self, idx: int) -> float:
        memo = _SEGMENT_MEMO.setdefault((self.seed, self.lo, self.hi), {})
        cached = memo.get(idx)
        if cached is None:
            if len(memo) >= _SEGMENT_MEMO_MAX:
                memo.clear()
            rng = np.random.default_rng((self.seed, idx))
            cached = float(rng.uniform(self.lo, self.hi))
            memo[idx] = cached
        return cached

    def rate(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        return self._segment_rate(int(t // self.hold))

    def rates(self, ts: np.ndarray) -> np.ndarray:
        idx = np.asarray(ts, dtype=float) // self.hold
        if idx.size == 0:
            return np.zeros(idx.shape)
        first, last = int(idx.min()), int(idx.max())
        if first < 0:
            raise ValueError(f"t must be >= 0, got {np.min(ts)}")
        if first == last:
            return np.full(idx.shape, self._segment_rate(first))
        return self._segment_rates(first, last + 1)[idx.astype(np.intp) - first]

    def _segment_rates(self, first: int, stop: int) -> np.ndarray:
        """The rates of segments ``first`` up to ``stop``, as an array."""
        segments = range(first, stop)
        memo = _SEGMENT_MEMO.get((self.seed, self.lo, self.hi), {})
        table = list(map(memo.get, segments))
        if None in table:
            table = list(map(self._segment_rate, segments))
        return np.array(table)

    def constant_until(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        return (int(t // self.hold) + 1) * self.hold

    def records_in(
        self, starts: Sequence[float], ends: Sequence[float]
    ) -> List[int]:
        """:meth:`records_between` over a block, in one array pass.

        The same float operations per interval: the overlap with each
        held segment, ``min`` end minus ``max`` start, times its rate,
        summed in segment order from ``0.0``; ``np.rint`` rounds half to
        even like ``round``.
        """
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if np.any(ends < starts):
            raise ValueError("every interval needs end >= start")
        if starts.size == 0:
            return []
        hold = self.hold
        first = (starts // hold).astype(np.int64)
        stop = np.maximum(np.ceil(ends / hold).astype(np.int64), first + 1)
        lo = int(first.min())
        if lo < 0:
            raise ValueError(f"t must be >= 0, got {starts.min()}")
        table = self._segment_rates(lo, int(stop.max()))
        totals = np.zeros(starts.shape)
        for j in range(int((stop - first).max())):
            idx = first + j
            seg_start = idx * hold
            overlap = np.minimum(ends, seg_start + hold) - np.maximum(
                starts, seg_start
            )
            live = (idx < stop) & (overlap > 0)
            rate = table[np.minimum(idx, stop - 1) - lo]
            totals += np.where(live, overlap * rate, 0.0)
        return np.rint(totals).astype(np.int64).tolist()

    def records_between(self, t0: float, t1: float) -> int:
        if t1 < t0:
            raise ValueError(f"t1 ({t1}) must be >= t0 ({t0})")
        total = 0.0
        i0 = int(t0 // self.hold)
        i1 = int(math.ceil(t1 / self.hold))
        for idx in range(i0, max(i1, i0 + 1)):
            seg_start = idx * self.hold
            seg_end = seg_start + self.hold
            overlap = min(t1, seg_end) - max(t0, seg_start)
            if overlap > 0:
                total += overlap * self._segment_rate(idx)
        return int(round(total))


@dataclass(frozen=True)
class StepRate(RateTrace):
    """Rate that jumps between levels at fixed boundaries.

    ``levels`` is a sequence of ``(start_time, rate)`` pairs sorted by
    start time; the first pair must start at 0.
    """

    levels: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("levels must be non-empty")
        starts = [s for s, _ in self.levels]
        if starts[0] != 0:
            raise ValueError("first level must start at t=0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("level start times must be strictly increasing")
        if any(r < 0 for _, r in self.levels):
            raise ValueError("rates must be >= 0")

    @staticmethod
    def of(*levels: Tuple[float, float]) -> "StepRate":
        return StepRate(tuple(levels))

    def rate(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        current = self.levels[0][1]
        for start, r in self.levels:
            if t >= start:
                current = r
            else:
                break
        return current

    def rates(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0):
            raise ValueError(f"t must be >= 0, got {ts.min()}")
        starts = np.array([s for s, _ in self.levels], dtype=float)
        values = np.array([r for _, r in self.levels], dtype=float)
        return values[np.searchsorted(starts, ts, side="right") - 1]

    def constant_until(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        for start, _ in self.levels:
            if start > t:
                return start
        return math.inf


@dataclass(frozen=True)
class SineRate(RateTrace):
    """Smooth diurnal-style oscillation around a base rate."""

    base: float
    amplitude: float
    period: float

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("base must be >= 0")
        if self.amplitude < 0 or self.amplitude > self.base:
            raise ValueError("need 0 <= amplitude <= base (rates must stay >= 0)")
        if self.period <= 0:
            raise ValueError("period must be positive")

    def rate(self, t: float) -> float:
        return self.base + self.amplitude * math.sin(2.0 * math.pi * t / self.period)


@dataclass(frozen=True)
class SpikeRate(RateTrace):
    """Wrap a base trace with multiplicative surges in given windows.

    Models the "surges in traffic (e.g., E-commerce promotion, spike
    activities)" of §5.5 that must trigger NoStop's coefficient reset.
    ``spikes`` is a tuple of ``(start, end, multiplier)`` windows.
    """

    base: RateTrace
    spikes: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        for start, end, mult in self.spikes:
            if end <= start:
                raise ValueError(f"spike window [{start}, {end}) is empty")
            if mult <= 0:
                raise ValueError(f"spike multiplier must be positive, got {mult}")

    def rate(self, t: float) -> float:
        r = self.base.rate(t)
        for start, end, mult in self.spikes:
            if start <= t < end:
                r *= mult
        return r

    def rates(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        r = self.base.rates(ts)
        for start, end, mult in self.spikes:
            r = np.where((start <= ts) & (ts < end), r * mult, r)
        return r

    def constant_until(self, t: float) -> float:
        limit = self.base.constant_until(t)
        for start, end, _ in self.spikes:
            if start > t:
                limit = min(limit, start)
            if t < end <= limit:
                limit = end
        return limit


class TraceRate(RateTrace):  # det: allow-unused: records-between/table golden
    """Replay a recorded rate series (piecewise constant at ``dt``)."""

    def __init__(self, samples: Sequence[float], dt: float = 1.0) -> None:
        if not len(samples):
            raise ValueError("samples must be non-empty")
        if dt <= 0:
            raise ValueError("dt must be positive")
        arr = np.asarray(samples, dtype=float)
        if np.any(arr < 0):
            raise ValueError("rates must be >= 0")
        self._samples = arr
        self.dt = float(dt)

    def rate(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        idx = min(int(t // self.dt), len(self._samples) - 1)
        return float(self._samples[idx])

    def rates(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0):
            raise ValueError(f"t must be >= 0, got {ts.min()}")
        idx = np.minimum(ts // self.dt, len(self._samples) - 1)
        return self._samples[idx.astype(np.intp)]

    def constant_until(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        idx = int(t // self.dt)
        if idx >= len(self._samples) - 1:
            # Past the last sample the series clamps to its final value.
            return math.inf
        return (idx + 1) * self.dt


#: The paper's per-workload rate bands (records/second), Fig. 5.
PAPER_RATE_BANDS = {
    "logistic_regression": (7_000, 13_000),
    "linear_regression": (80_000, 120_000),
    "wordcount": (110_000, 190_000),
    "page_analyze": (170_000, 230_000),
}


#: Derived workloads reuse their base workload's paper band.
RATE_BAND_ALIASES = {"windowed_wordcount": "wordcount"}


def paper_rate_trace(workload: str, seed: int = 0, hold: float = 10.0) -> UniformRandomRate:
    """The §6.2.2 uniform-random-band trace for a named paper workload."""
    name = RATE_BAND_ALIASES.get(workload, workload)
    try:
        lo, hi = PAPER_RATE_BANDS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {workload!r}; expected one of "
            f"{sorted(PAPER_RATE_BANDS) + sorted(RATE_BAND_ALIASES)}"
        ) from None
    return UniformRandomRate(lo, hi, hold=hold, seed=seed)

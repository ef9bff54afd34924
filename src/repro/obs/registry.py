"""Metrics registry: every instrument is built from its catalog spec.

Naming follows ``repro_<subsystem>_<name>_<unit>`` (DESIGN.md §10), e.g.
``repro_streaming_processing_seconds``.  The registry has one factory,
:meth:`MetricsRegistry.instrument`, and one input, the
:class:`MetricSpec` that declares the metric in
:mod:`repro.obs.catalog`.  Each name maps to one :class:`MetricFamily`:
the spec's immutable label schema and interned per-label-set children
built from ``spec.kind``.  An unlabeled metric is a family with no
labels and one child, which ``instrument()`` hands back directly, so a
call site binds the same plain instrument either way.

Every family carries a hard **cardinality budget** (``max_children``); a
``labels()`` call that would mint a child beyond the budget gets the
shared no-op instrument back and increments
``repro_obs_cardinality_rejected_total`` — the registry never grows
without bound, and the rejection is visible in telemetry instead of
silent.  Name and label rules are checked once, over the declarations,
by :func:`repro.obs.catalog.lint_catalog`; the registry only refuses a
name already registered with a different spec.  Rendering goes through
:func:`repro.obs.exporters.prometheus_text`.

Disabled telemetry uses :data:`NOOP_REGISTRY`, whose ``instrument()``
hands back the shared do-nothing instrument — instrumented code holds
real attribute references either way and pays only an empty method call
when telemetry is off.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default per-family cardinality budget.  Generous for the bounded
#: dimensions we label by (topic, fault kind, invariant name) and small
#: enough that an accidental per-record label cannot explode a registry.
DEFAULT_MAX_CHILDREN = 64

#: Default latency buckets (seconds), spanning sub-second task phases to
#: the paper's 40 s maximum batch interval and deep-backlog delays.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0,
)


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric: the unit of governance and the registry's
    one input."""

    name: str
    kind: str
    subsystem: str
    help: str
    unit: str = ""
    """Measurement unit (``seconds``, ``records``, …); empty for
    dimensionless instantaneous values (executor counts, queue length)."""
    labels: Tuple[str, ...] = ()
    """Immutable label schema; empty = flat (unlabeled) metric."""
    stability: str = "stable"
    buckets: Optional[Tuple[float, ...]] = None
    """Histogram bucket bounds; ``None`` uses the seconds default."""
    max_children: int = DEFAULT_MAX_CHILDREN
    """Cardinality budget for labeled families."""

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "subsystem": self.subsystem,
            "help": self.help,
            "unit": self.unit,
            "labels": list(self.labels),
            "stability": self.stability,
            "buckets": list(self.buckets) if self.buckets else None,
            "maxChildren": self.max_children if self.labels else None,
        }


#: The counter every family increments when its budget rejects a child.
CARDINALITY_REJECTED = MetricSpec(
    name="repro_obs_cardinality_rejected_total",
    kind="counter",
    subsystem="obs",
    help="labels() calls rejected because the family cardinality budget "
         "was already spent",
)


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount


class Gauge:
    """Instantaneous value that can move in either direction."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative histogram over fixed, immutable bucket bounds."""

    __slots__ = ("name", "bounds", "bucket_counts", "sum", "count")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name} bucket bounds must be strictly increasing"
            )
        self.name = name
        self.bounds = bounds
        #: counts[i] observations fell in (bounds[i-1], bounds[i]]; the
        #: trailing slot is the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative per-bucket counts (incl. +Inf)."""
        out: List[int] = []
        running = 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (0 when empty).

        Accurate to bucket resolution — good enough for CLI summaries;
        exact percentiles over raw values live in
        :func:`repro.streaming.metrics.percentile`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        prev_bound = 0.0
        for i, c in enumerate(self.bucket_counts):
            upper = self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
            if running + c >= target and c > 0:
                frac = (target - running) / c
                return prev_bound + frac * (upper - prev_bound)
            running += c
            prev_bound = upper
        return self.bounds[-1]


class _NoopInstrument:
    """One object standing in for every instrument and family: it
    absorbs every update, and ``labels()`` hands back itself."""

    value = 0.0
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labels: object) -> "_NoopInstrument":
        return self


NOOP_INSTRUMENT = _NoopInstrument()


class MetricFamily:
    """One registered metric: its spec and its interned children.

    Children are built from ``spec.kind`` on the first ``labels()`` call
    for a label set and shared thereafter; call sites bind their child
    once (constructor time) so the hot path touches only the child
    instrument.  The family enforces its cardinality budget: once
    ``max_children`` distinct label sets exist, further *new* label sets
    are rejected — the caller gets :data:`NOOP_INSTRUMENT` (so
    instrumentation never raises mid-run) and the rejection is counted
    on ``repro_obs_cardinality_rejected_total`` and on :attr:`rejected`.
    """

    __slots__ = ("spec", "rejected", "_children", "_rejected_counter")

    def __init__(
        self, spec: MetricSpec, rejected_counter: Optional[Counter]
    ) -> None:
        self.spec = spec
        #: labels() calls this family rejected over budget.
        self.rejected = 0
        self._children: Dict[Tuple[str, ...], object] = {}
        self._rejected_counter = rejected_counter

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def value(self) -> float:
        """Sum over children — the family total a flat reader expects."""
        return sum(
            c.value for _, c in self.children()  # type: ignore[attr-defined]
        )

    def labels(self, **labels: object):
        """Create-or-get the child for one label set.

        Label names must match the declared schema exactly; values are
        coerced to ``str``.  Over-budget label sets return the shared
        no-op instrument with rejection accounting.
        """
        names = self.spec.labels
        if len(labels) != len(names):
            raise ValueError(
                f"family {self.name} takes labels {names}, "
                f"got {tuple(sorted(labels))}"
            )
        try:
            key = tuple(str(labels[ln]) for ln in names)
        except KeyError as exc:
            raise ValueError(
                f"family {self.name} takes labels {names}, "
                f"got {tuple(sorted(labels))}"
            ) from exc
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= self.spec.max_children:
                self.rejected += 1
                self._rejected_counter.inc()  # type: ignore[union-attr]
                return NOOP_INSTRUMENT
            child = self._new_child()
            self._children[key] = child
        return child

    def _new_child(self):
        spec = self.spec
        if spec.kind == "histogram":
            return Histogram(spec.name, spec.buckets or DEFAULT_SECONDS_BUCKETS)
        return (Counter if spec.kind == "counter" else Gauge)(spec.name)

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label_values, child)`` pairs sorted by label values."""
        return [(k, self._children[k]) for k in sorted(self._children)]

    def __len__(self) -> int:
        return len(self._children)


class MetricsRegistry:
    """Create-or-get factory and collection point for metric families."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, MetricFamily] = {}

    def instrument(self, spec: MetricSpec):
        """Create-or-get the metric ``spec`` declares.

        A labeled spec gets its family (bind children with
        ``labels()``); an unlabeled spec gets its one child, bound now.
        Asking again with the same spec returns the same object; asking
        with a different spec for a registered name raises.
        """
        family = self._metrics.get(spec.name)
        if family is None:
            rejected = (
                self.instrument(CARDINALITY_REJECTED) if spec.labels else None
            )
            family = self._metrics[spec.name] = MetricFamily(spec, rejected)
        elif family.spec != spec:
            raise ValueError(
                f"metric {spec.name!r} already registered as "
                f"{family.spec}, requested {spec}"
            )
        return family if spec.labels else family.labels()

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._metrics.get(name)

    def collect(self) -> Iterable[MetricFamily]:
        """All registered families, sorted by name (deterministic)."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def __len__(self) -> int:
        return len(self._metrics)


class _NoopRegistry(MetricsRegistry):
    """Registry that hands out the shared no-op instrument."""

    enabled = False

    def instrument(self, spec: MetricSpec):
        return NOOP_INSTRUMENT


NOOP_REGISTRY = _NoopRegistry()

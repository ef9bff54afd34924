"""Synthetic record generators for the four paper workloads.

Each workload consumes a different record type:

* streaming logistic regression — labeled feature vectors;
* streaming linear regression — feature vectors with a real-valued target;
* WordCount — lines of text;
* Page Analyze — Nginx access-log lines.

The simulator's cost models work from record *counts*, but the workload
kernels in :mod:`repro.workloads` genuinely parse and process these
payloads, so examples and tests can demonstrate end-to-end semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

_WORDS = (
    "stream spark batch executor interval delay kafka broker node tuple "
    "shuffle stage task queue record latency window state driver worker"
).split()

_PATHS = (
    "/index.html",
    "/cart",
    "/checkout",
    "/api/v1/items",
    "/api/v1/users",
    "/static/app.js",
    "/search",
    "/product/42",
    "/login",
    "/logout",
)

_STATUS = (200, 200, 200, 200, 301, 304, 404, 500)
_METHODS = ("GET", "GET", "GET", "POST", "PUT")


@dataclass(frozen=True)
class LabeledPoint:
    """A (label, features) pair, as in Spark MLlib's streaming regressors."""

    label: float
    features: Tuple[float, ...]


#: Features per labeled point the data generator synthesizes; the
#: regression workloads' model dimension.
FEATURE_DIM = 10


def make_labeled_points(
    n: int,
    dim: int,
    rng: np.random.Generator,
    binary: bool = True,
    noise: float = 0.1,
) -> List[LabeledPoint]:
    """Generate ``n`` points from a fixed ground-truth linear model.

    With ``binary=True`` labels are {0,1} via a logistic link (for the
    Streaming Logistic Regression workload); otherwise labels are real
    valued (Streaming Linear Regression).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    truth = np.linspace(1.0, -1.0, dim)
    x = rng.normal(size=(n, dim))
    margin = x @ truth + rng.normal(scale=noise, size=n)
    if binary:
        labels = (1.0 / (1.0 + np.exp(-margin)) > 0.5).astype(float)
    else:
        labels = margin
    return [
        LabeledPoint(label=float(labels[i]), features=tuple(float(v) for v in x[i]))
        for i in range(n)
    ]


def make_text_lines(
    n: int, rng: np.random.Generator, words_per_line: int = 8
) -> List[str]:
    """Generate ``n`` lines of space-separated words (WordCount input)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if words_per_line < 1:
        raise ValueError("words_per_line must be >= 1")
    idx = rng.integers(0, len(_WORDS), size=(n, words_per_line))
    return [" ".join(_WORDS[j] for j in row) for row in idx]


def make_nginx_log_lines(n: int, rng: np.random.Generator) -> List[str]:
    """Generate ``n`` Nginx combined-format access-log lines.

    Page Analyze "receives Nginx log from Kafka, washing and analyzing
    data" — a small fraction of lines is deliberately malformed so the
    washing step has something to drop.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    lines: List[str] = []
    for _ in range(n):
        if rng.random() < 0.02:  # corrupted line for the "washing" stage
            lines.append("!!corrupt!!" + str(rng.integers(0, 10**6)))
            continue
        ip = ".".join(str(int(v)) for v in rng.integers(1, 255, size=4))
        method = _METHODS[int(rng.integers(0, len(_METHODS)))]
        path = _PATHS[int(rng.integers(0, len(_PATHS)))]
        status = _STATUS[int(rng.integers(0, len(_STATUS)))]
        size = int(rng.integers(100, 50_000))
        latency_ms = float(rng.gamma(shape=2.0, scale=20.0))
        lines.append(
            f'{ip} - - [01/Jul/2021:12:00:00 +0000] "{method} {path} HTTP/1.1" '
            f"{status} {size} {latency_ms:.1f}"
        )
    return lines


def parse_nginx_log_line(line: str):
    """Parse one access-log line; returns None for malformed input.

    Returns a ``(ip, method, path, status, size, latency_ms)`` tuple.
    """
    try:
        head, _, tail = line.partition("] \"")
        if not tail:
            return None
        ip = head.split(" ", 1)[0]
        request, _, rest = tail.partition('" ')
        parts = request.split(" ")
        if len(parts) != 3:
            return None
        method, path, _proto = parts
        fields = rest.split()
        if len(fields) < 3:
            return None
        status = int(fields[0])
        size = int(fields[1])
        latency_ms = float(fields[2])
        return (ip, method, path, status, size, latency_ms)
    except (ValueError, IndexError):
        return None

"""Registry of the paper's workloads by name."""

from __future__ import annotations

from typing import Dict, Type

from .base import Workload
from .linear_regression import StreamingLinearRegression
from .logistic_regression import StreamingLogisticRegression
from .page_analyze import PageAnalyze
from .windowed import WindowedWordCount
from .wordcount import WordCount

WORKLOADS: Dict[str, Type[Workload]] = {
    StreamingLogisticRegression.name: StreamingLogisticRegression,
    StreamingLinearRegression.name: StreamingLinearRegression,
    WordCount.name: WordCount,
    PageAnalyze.name: PageAnalyze,
    WindowedWordCount.name: WindowedWordCount,
}


def make_workload(name: str) -> Workload:
    """Instantiate a paper workload by registry name."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
    return cls()

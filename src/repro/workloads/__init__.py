"""The paper's four evaluation workloads (§6.1).

Each workload is both a job factory for the simulator (calibrated cost
model → stage/task chain) and a real compute kernel (NumPy SGD trainers,
word counting, Nginx log analytics).
"""

from typing import Dict, Type

from .base import Workload
from .cost_models import (
    LINEAR_REGRESSION_COSTS,
    LOGISTIC_REGRESSION_COSTS,
    PAGE_ANALYZE_COSTS,
    WORDCOUNT_COSTS,
    IterationModel,
    StageCost,
    WorkloadCostModel,
)
from .linear_regression import StreamingLinearRegression
from .logistic_regression import StreamingLogisticRegression
from .page_analyze import AnalyzeResult, PageAnalyze, PageStats
from .windowed import WindowedWordCount
from .wordcount import WordCount

#: Registry of the paper's workloads by name.
WORKLOADS: Dict[str, Type[Workload]] = {
    StreamingLogisticRegression.name: StreamingLogisticRegression,
    StreamingLinearRegression.name: StreamingLinearRegression,
    WordCount.name: WordCount,
    PageAnalyze.name: PageAnalyze,
    WindowedWordCount.name: WindowedWordCount,
}


def make_workload(name: str, **kwargs) -> Workload:
    """Instantiate a paper workload by registry name."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "AnalyzeResult",
    "IterationModel",
    "LINEAR_REGRESSION_COSTS",
    "LOGISTIC_REGRESSION_COSTS",
    "PAGE_ANALYZE_COSTS",
    "PageAnalyze",
    "PageStats",
    "StageCost",
    "StreamingLinearRegression",
    "StreamingLogisticRegression",
    "WORDCOUNT_COSTS",
    "WORKLOADS",
    "WindowedWordCount",
    "WordCount",
    "Workload",
    "WorkloadCostModel",
    "make_workload",
]

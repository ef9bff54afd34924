"""The paper's four evaluation workloads (§6.1).

Each workload is both a job factory for the simulator (calibrated cost
model → stage/task chain) and a real compute kernel (NumPy SGD trainers,
word counting, Nginx log analytics).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("Workload",),
    "cost_models": (
        "LINEAR_REGRESSION_COSTS", "LOGISTIC_REGRESSION_COSTS",
        "PAGE_ANALYZE_COSTS", "WORDCOUNT_COSTS", "IterationModel", "StageCost",
        "WorkloadCostModel",
    ),
    "linear_regression": ("StreamingLinearRegression",),
    "logistic_regression": ("StreamingLogisticRegression",),
    "page_analyze": ("AnalyzeResult", "PageAnalyze", "PageStats"),
    "registry": ("WORKLOADS", "make_workload"),
    "windowed": ("WindowedWordCount",),
    "wordcount": ("WordCount",),
})

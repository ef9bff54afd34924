"""NoStop reproduction: SPSA-based online configuration optimization for
micro-batch stream processing.

Reproduces Ye, Liu & Wu, "NoStop: A Novel Configuration Optimization
Scheme for Spark Streaming" (ICPP 2021) on a from-scratch discrete-event
simulation of the Spark Streaming stack (heterogeneous cluster, Kafka,
micro-batch engine, four evaluation workloads) plus the Bayesian-
optimization and back-pressure baselines.

Quick start::

    from repro import quick_nostop_run
    report = quick_nostop_run("wordcount", rounds=30, seed=7)
    print(report.final_interval, report.final_executors)

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
per-figure reproduction harness.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "": (
        "__version__", "baselines", "cluster", "core", "datagen", "engine",
        "kafka", "streaming", "workloads",
    ),
    "core.nostop": ("NoStopController", "NoStopReport"),
    "experiments.common": ("build_experiment", "quick_nostop_run"),
})

"""Streaming data generation substrate.

Rate traces (uniform random bands per the paper's Fig. 5, steps, spikes,
sines), synthetic record payloads for the four workloads, and the
external data generator that feeds the simulated Kafka cluster.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "generator": ("DataGenerator",),
    "rates": (
        "PAPER_RATE_BANDS", "ConstantRate", "RateTrace", "SineRate", "SpikeRate",
        "StepRate", "TraceRate", "UniformRandomRate", "paper_rate_trace",
    ),
    "records": (
        "LabeledPoint", "make_labeled_points", "make_nginx_log_lines",
        "make_text_lines", "parse_nginx_log_line",
    ),
})

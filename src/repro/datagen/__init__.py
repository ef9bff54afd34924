"""Streaming data generation substrate.

Rate traces (uniform random bands per the paper's Fig. 5, steps, spikes,
sines), synthetic record payloads for the four workloads, and the
external data generator that feeds the simulated Kafka cluster.
"""

from .generator import DataGenerator
from .rates import (
    PAPER_RATE_BANDS,
    ConstantRate,
    RateTrace,
    SineRate,
    SpikeRate,
    StepRate,
    TraceRate,
    UniformRandomRate,
    paper_rate_trace,
)
from .records import (
    LabeledPoint,
    make_labeled_points,
    make_nginx_log_lines,
    make_text_lines,
    parse_nginx_log_line,
)

__all__ = [
    "ConstantRate",
    "DataGenerator",
    "LabeledPoint",
    "PAPER_RATE_BANDS",
    "RateTrace",
    "SineRate",
    "SpikeRate",
    "StepRate",
    "TraceRate",
    "UniformRandomRate",
    "make_labeled_points",
    "make_nginx_log_lines",
    "make_text_lines",
    "parse_nginx_log_line",
    "paper_rate_trace",
]

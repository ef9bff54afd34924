"""Measurement post-processing: repeat-set statistics, ASCII tables for
the benchmark harness, and JSON experiment traces."""

from .chaos import baseline_delay, delay_overshoot, time_to_recover
from .stats import Summary, improvement_factor, summarize
from .tables import format_series, format_table
from .traces import ExperimentTrace, load_span_jsonl

__all__ = [
    "ExperimentTrace",
    "load_span_jsonl",
    "baseline_delay",
    "delay_overshoot",
    "time_to_recover",
    "Summary",
    "format_series",
    "format_table",
    "improvement_factor",
    "summarize",
]

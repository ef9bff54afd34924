"""Measurement post-processing: repeat-set statistics, ASCII tables for
the benchmark harness, and JSON experiment traces."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "chaos": ("delay_overshoot", "time_to_recover"),
    "stats": ("Summary", "improvement_factor", "summarize"),
    "tables": ("format_series", "format_table"),
    "traces": (
        "ExperimentTrace",
        "load_span_jsonl",  # det: allow-unused: README trace reload
    ),
})

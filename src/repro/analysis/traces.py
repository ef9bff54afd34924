"""Experiment trace recording and replay.

Experiments serialize their raw per-batch / per-round series to JSON so
results can be re-plotted or diffed across runs without re-simulating.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np


def _jsonable(obj: Any) -> Any:
    """Recursively convert numpy / dataclass values to JSON-native ones."""
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


@dataclass
class ExperimentTrace:
    """A named experiment with arbitrary series and metadata."""

    experiment: str
    metadata: Dict[str, Any] = field(default_factory=dict)
    series: Dict[str, List] = field(default_factory=dict)

    def add_series(self, name: str, values: List) -> None:
        if name in self.series:
            raise ValueError(f"series {name!r} already recorded")
        self.series[name] = list(values)

    def append(self, name: str, value: Any) -> None:
        self.series.setdefault(name, []).append(value)

    def to_json(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "metadata": _jsonable(self.metadata),
                "series": _jsonable(self.series),
            },
            indent=2,
        )

    def save(self, path: Union[str, Path]) -> Path:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.to_json())
        return p

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentTrace":
        payload = json.loads(Path(path).read_text())
        for key in ("experiment", "series"):
            if key not in payload:
                raise ValueError(f"malformed trace file: missing {key!r}")
        return cls(
            experiment=payload["experiment"],
            metadata=payload.get("metadata", {}),
            series={k: list(v) for k, v in payload["series"].items()},
        )


def load_span_jsonl(  # det: allow-unused: README trace reload
    path: Union[str, Path],
) -> List:
    """Reload ``repro trace --out`` span JSONL for offline analysis.

    Returns the spans in file order (the tracer's store order), ready
    for :func:`repro.obs.analyze_spans`,
    :func:`repro.obs.chrome_trace_json`, or
    :func:`repro.obs.folded_stacks` — the analytics are pure over span
    values, so a reloaded archive decomposes and exports byte-identically
    to the live run that wrote it.
    """
    from repro.obs import parse_jsonl_spans

    return parse_jsonl_spans(Path(path).read_text())

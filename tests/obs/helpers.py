"""Shared builders and format checkers for the observability tests."""

import json
import re
from typing import Dict, List

from repro.obs.emit import Event
from repro.streaming.metrics import BatchInfo


def make_batch(
    index: int,
    *,
    batch_time: float = None,
    interval: float = 10.0,
    records: int = 1000,
    processing_time: float = 5.0,
    scheduling_delay: float = 0.0,
    executors: int = 10,
) -> BatchInfo:
    """One synthetic completed batch, ``index`` spacing one interval apart.

    ``processing_time > interval`` makes the batch unstable;
    ``scheduling_delay`` pushes its start (and therefore its end-to-end
    delay) later, exactly as backlog would.
    """
    bt = batch_time if batch_time is not None else index * interval
    start = bt + scheduling_delay
    return BatchInfo(
        batch_index=index,
        batch_time=bt,
        interval=interval,
        records=records,
        num_executors=executors,
        mean_arrival_time=bt - interval / 2.0,
        processing_start=start,
        processing_end=start + processing_time,
    )


def parse_jsonl_events(text: str) -> List[Event]:
    """Parse a :class:`~repro.obs.emit.JsonlSink` file back into events."""
    events: List[Event] = []
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed event on line {i}: {exc}") from exc
    return events


#: A label value is a run of non-special characters and *valid* escape
#: sequences (``\\``, ``\"``, ``\n``); a stray backslash before anything
#: else makes the sample malformed.
_LABEL_VALUE = r'(?:[^"\\]|\\["\\n])*'
_SAMPLE_RE = re.compile(
    r"^[a-z_:][a-z0-9_:]*"
    r"(\{[a-zA-Z0-9_]+=\"" + _LABEL_VALUE + r"\""
    r"(,[a-zA-Z0-9_]+=\"" + _LABEL_VALUE + r"\")*\})? "
    r"[-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z0-9_]+)="((?:[^"\\]|\\.)*)"')
#: A fully-valid label value: plain characters and complete escape pairs.
#: Matched against the whole captured value (a lookahead-based stray-
#: backslash scan would wrongly flag the second half of ``\\\\``).
_LABEL_VALUE_OK_RE = re.compile(r'(?:[^\\]|\\["\\n])*\Z')


def validate_prometheus_text(text: str) -> List[str]:
    """Structural validity check on an exposition snapshot.

    Returns a list of problems (empty = valid): malformed sample lines,
    samples with no preceding ``# TYPE``, label values with invalid
    escape sequences, histograms missing their mandatory ``+Inf``
    bucket, non-monotone histogram buckets, and ``_count`` disagreeing
    with the ``+Inf`` bucket.  Histogram accounting is keyed per *child*
    (base name + labels excluding ``le``), so labeled families validate
    each label set independently.  An empty snapshot (no-op export of an
    empty registry) is valid.
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    # Histogram series keyed per child: (base, sorted non-le label pairs).
    buckets: Dict[tuple, List[float]] = {}
    inf_bucket: Dict[tuple, float] = {}
    counts: Dict[tuple, float] = {}

    def _child_desc(key: tuple) -> str:
        base, pairs = key
        if not pairs:
            return base
        frag = ",".join(f'{k}="{v}"' for k, v in pairs)
        return f"{base}{{{frag}}}"

    for i, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                problems.append(f"line {i}: malformed TYPE line")
            else:
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            problems.append(f"line {i}: unknown comment directive")
            continue
        bad_escape = False
        pairs = []
        for m in _LABEL_PAIR_RE.finditer(line):
            if not _LABEL_VALUE_OK_RE.match(m.group(2)):
                problems.append(
                    f"line {i}: invalid escape sequence in label value "
                    f"{m.group(2)!r}"
                )
                bad_escape = True
            pairs.append((m.group(1), m.group(2)))
        if bad_escape:
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {i}: malformed sample line: {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            problems.append(f"line {i}: sample {name!r} has no TYPE")
        value = float(line.rsplit(" ", 1)[1])
        child = (base, tuple(sorted(p for p in pairs if p[0] != "le")))
        if name.endswith("_bucket"):
            le = dict(pairs).get("le")
            if le is None:
                problems.append(f"line {i}: histogram bucket missing le label")
                continue
            if le == "+Inf":
                inf_bucket[child] = value
            else:
                buckets.setdefault(child, []).append(value)
        elif name.endswith("_count") and typed.get(base) == "histogram":
            counts[child] = value

    for child, series in buckets.items():
        desc = _child_desc(child)
        if any(b > a for a, b in zip(series[1:], series)):
            problems.append(f"{desc}: bucket counts not monotone")
        if child in inf_bucket and series and series[-1] > inf_bucket[child]:
            problems.append(f"{desc}: +Inf bucket below last finite bucket")
    # Every histogram child must emit its mandatory +Inf bucket — a
    # snapshot with finite buckets (or a _count) but no +Inf is
    # unscrapeable.
    for child in sorted(set(buckets) | set(counts)):
        if typed.get(child[0]) == "histogram" and child not in inf_bucket:
            problems.append(
                f"{_child_desc(child)}: histogram missing its +Inf bucket"
            )
    for child, n in counts.items():
        if child in inf_bucket and n != inf_bucket[child]:
            problems.append(
                f"{_child_desc(child)}: _count {n} disagrees with "
                f"+Inf bucket {inf_bucket[child]}"
            )
    return problems

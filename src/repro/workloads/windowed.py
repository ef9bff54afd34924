"""Windowed streaming operations (``reduceByKeyAndWindow``).

Spark Streaming's windowed transformations aggregate over the last
*window* of micro-batches, re-emitting results every batch.  Two
execution strategies exist, both modeled here:

* **recompute** — every batch reprocesses the whole window's records
  (``reduceByKeyAndWindow(func, windowDuration)``);
* **incremental** — with an invertible reduce function, each batch only
  processes the *entering* and *leaving* batches
  (``reduceByKeyAndWindow(func, invFunc, ...)``), a large saving for
  wide windows.

Windows are expressed in *batches* rather than seconds: real Spark
requires the window duration to be a multiple of the batch interval,
which would couple the window to the very parameter NoStop tunes; a
batch-count window keeps the semantics well-defined under retuning
(documented deviation — the alternative would forbid interval changes).

:class:`WindowedWordCount` is the concrete instance: a sliding word
count whose kernel genuinely maintains per-batch counters and emits the
windowed aggregate.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Sequence

from .wordcount import WordCount


class WindowedWordCount(WordCount):
    """Sliding-window word count over the last ``window_batches`` batches."""

    name = "windowed_wordcount"
    payload_kind = "text"
    windowed = True

    def __init__(self, window_batches: int = 6, incremental: bool = True) -> None:
        super().__init__()
        if window_batches < 1:
            raise ValueError(
                f"window_batches must be >= 1, got {window_batches}"
            )
        self.window_batches = window_batches
        self.incremental = incremental
        #: record counts of the batches currently inside the window
        self._window_counts: Deque[int] = deque(maxlen=window_batches)
        #: per-batch word counters for the kernel's windowed aggregate
        self._window_counters: Deque[Counter] = deque(maxlen=window_batches)

    # -- cost model -------------------------------------------------------

    def effective_records(self, records: int) -> int:
        """Records the windowed job processes for one new batch.

        Recompute strategy: the whole window.  Incremental strategy: the
        entering batch plus the leaving batch (inverse-reduce touches
        both), which is what makes wide windows affordable.
        """
        leaving = (
            self._window_counts[0]
            if len(self._window_counts) == self.window_batches
            else 0
        )
        self._window_counts.append(records)
        if self.incremental:
            return records + leaving
        return sum(self._window_counts)

    # -- kernel -------------------------------------------------------------

    def run_kernel(self, payloads: Sequence[str]) -> Dict[str, int]:
        """Count one batch and return the *windowed* aggregate."""
        batch_counts: Counter = Counter()
        for line in payloads:
            batch_counts.update(line.split())
        self._window_counters.append(batch_counts)
        self.totals.update(batch_counts)
        self.batches_processed += 1
        windowed: Counter = Counter()
        for c in self._window_counters:
            windowed.update(c)
        return dict(windowed)

"""WordCount workload.

The paper's CPU-intensive reference workload: "a simple workload as it
only requires two mapping/reducing operations and has a fixed processing
flow", giving it the most stable batch processing time (§6.3).  Stage
chain: map (tokenize) → reduceByKey (count aggregation with a small
shuffle I/O component).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Sequence

from .base import Workload
from .cost_models import WORDCOUNT_COSTS


class WordCount(Workload):
    """Classic streaming word count with running totals."""

    name = "wordcount"
    payload_kind = "text"
    COST_MODEL = WORDCOUNT_COSTS

    def __init__(self) -> None:
        super().__init__()
        #: Running word totals across all processed batches.
        self.totals: Counter = Counter()
        self.batches_processed = 0

    def run_kernel(self, payloads: Sequence[str]) -> Dict[str, int]:
        """Count words in one batch of text lines.

        Returns the batch's counts and folds them into ``self.totals``
        (the streaming ``updateStateByKey`` half of the job).
        """
        batch_counts: Counter = Counter()
        for line in payloads:
            batch_counts.update(line.split())
        self.totals.update(batch_counts)
        self.batches_processed += 1
        return dict(batch_counts)

"""Page (Log) Analyze workload.

"Log Analyze simulates the common scenarios in industry, receiving Nginx
log from Kafka, washing and analyzing data, and writing results back into
HDFS" (§6.1).  Stage chain: wash (drop malformed lines) → analyze (parse
and enrich) → aggregate (per-path/status rollups) → hdfs_write (I/O-heavy
output, penalized on HDD nodes).  Complex but steady per-batch cost,
hence a smooth optimization trajectory in Fig. 6.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.datagen.records import parse_nginx_log_line

from .base import Workload
from .cost_models import PAGE_ANALYZE_COSTS


@dataclass
class PageStats:
    """Aggregated per-path statistics for one batch."""

    hits: int = 0
    bytes_out: int = 0
    errors: int = 0
    latency_sum_ms: float = 0.0

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_sum_ms / self.hits if self.hits else 0.0


@dataclass
class AnalyzeResult:
    """Output of one Page Analyze batch."""

    parsed: int = 0
    malformed: int = 0
    per_path: Dict[str, PageStats] = field(default_factory=dict)


class PageAnalyze(Workload):
    """Nginx access-log washing, analysis and aggregation."""

    name = "page_analyze"
    payload_kind = "nginx_logs"
    COST_MODEL = PAGE_ANALYZE_COSTS

    def __init__(self) -> None:
        super().__init__()
        self.batches_processed = 0
        #: Simulated HDFS sink: list of per-batch aggregate summaries.
        self.hdfs_sink: list = []

    def run_kernel(self, payloads: Sequence[str]) -> AnalyzeResult:
        """Wash + analyze one batch of log lines; write rollups to the sink."""
        result = AnalyzeResult()
        stats: Dict[str, PageStats] = defaultdict(PageStats)
        for line in payloads:
            parsed = parse_nginx_log_line(line)
            if parsed is None:
                result.malformed += 1  # dropped by the washing stage
                continue
            _ip, _method, path, status, size, latency_ms = parsed
            result.parsed += 1
            s = stats[path]
            s.hits += 1
            s.bytes_out += size
            s.latency_sum_ms += latency_ms
            if status >= 500:
                s.errors += 1
        result.per_path = dict(stats)
        # "writing results back into HDFS"
        self.hdfs_sink.append(
            {
                "batch": self.batches_processed,
                "parsed": result.parsed,
                "malformed": result.malformed,
                "paths": len(result.per_path),
            }
        )
        self.batches_processed += 1
        return result

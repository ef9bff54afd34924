"""Unit tests for time-to-recover over a batch history."""

import math

from repro.analysis.chaos import RECOVERY_BATCHES, time_to_recover
from repro.streaming.metrics import BatchInfo


def history(*stable):
    """One batch per flag, closing every 10 s with a 10 s interval;
    a stable batch takes 5 s to process, an unstable one 15 s."""
    return [
        BatchInfo(
            batch_index=i, batch_time=10.0 * i, interval=10.0, records=1,
            num_executors=1, mean_arrival_time=10.0 * i - 5.0,
            processing_start=10.0 * i,
            processing_end=10.0 * i + (5.0 if ok else 15.0),
        )
        for i, ok in enumerate(stable, start=1)
    ]


class TestTimeToRecover:
    def test_recovers_at_third_consecutive_stable_batch(self):
        assert RECOVERY_BATCHES == 3
        batches = history(True, False, True, True, True, True)
        # Fault at t=12: batch 1 (ends 15) is stable but batch 2 is not,
        # so recovery comes at batch 5, the third stable in a row (ends 55).
        assert time_to_recover(batches, fault_start=12.0) == 55.0 - 12.0

    def test_unstable_batch_resets_the_count(self):
        batches = history(True, True, False, True, True, False, True, True, True)
        assert time_to_recover(batches, fault_start=0.0) == 95.0

    def test_batches_done_before_the_fault_do_not_count(self):
        batches = history(True, True, True, True)
        # Batches 1 and 2 end by t=25, so the count starts at batch 3.
        assert time_to_recover(batches, fault_start=25.0) == math.inf
        assert time_to_recover(batches, fault_start=24.0) == 45.0 - 24.0

    def test_never_restabilizing_is_infinite(self):
        batches = history(True, True, False, True, True, False)
        assert time_to_recover(batches, fault_start=0.0) == math.inf
        assert time_to_recover([], fault_start=0.0) == math.inf

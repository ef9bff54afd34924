"""Unit tests for the batch queue."""

import numpy as np
import pytest

from repro.streaming.batch_queue import BatchQueue, QueuedBatch
from repro.workloads.wordcount import WordCount


def qb(t=0.0, records=10):
    wl = WordCount()
    wl.partitions = 2
    job = wl.build_job(t, records, np.random.default_rng(0))
    return QueuedBatch(t, records, t - 1.0, interval=2.0, cost=job)


class TestBatchQueue:
    def test_fifo_order(self):
        q = BatchQueue()
        q.enqueue(qb(1.0))
        q.enqueue(qb(2.0))
        assert q.dequeue(5.0).batch_time == 1.0
        assert q.dequeue(5.0).batch_time == 2.0

    def test_dequeue_empty_raises(self):
        with pytest.raises(IndexError):
            BatchQueue().dequeue(0.0)

    def test_dequeue_before_enqueue_time_rejected(self):
        q = BatchQueue()
        q.enqueue(qb(10.0))
        with pytest.raises(ValueError):
            q.dequeue(5.0)

    def test_peak_length_tracked(self):
        q = BatchQueue()
        for t in range(5):
            q.enqueue(qb(float(t)))
        q.dequeue(10.0)
        assert q.peak_length == 5
        assert len(q) == 4

    def test_bounded_queue_evicts_oldest(self):
        q = BatchQueue(max_length=2)
        assert q.enqueue(qb(1.0))
        assert q.enqueue(qb(2.0))
        assert not q.enqueue(qb(3.0))  # evicts the t=1 batch
        assert q.total_dropped == 1
        assert q.dequeue(10.0).batch_time == 2.0

    def test_conservation_invariant(self):
        q = BatchQueue(max_length=3)
        for t in range(10):
            q.enqueue(qb(float(t)))
            if t % 2:
                q.dequeue(float(t) + 0.5)
        assert q.conservation_ok()

    def test_invalid_max_length_rejected(self):
        with pytest.raises(ValueError):
            BatchQueue(max_length=0)

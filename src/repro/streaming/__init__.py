"""Spark Streaming micro-batch substrate (discrete-event simulation).

Receiver → batch queue → serialized micro-batch engine, with runtime
reconfiguration of batch interval and executor count, a JSON-reporting
listener (paper Fig. 4), and Spark's PID back-pressure estimator.
"""

from .backpressure import BackPressureController, PIDRateEstimator
from .batch_queue import BatchQueue, QueuedBatch
from .context import StreamingConfig, StreamingContext
from .listener import StreamingListener
from .metrics import BatchInfo, StreamingMetrics
from .receiver import ReceivedBatch, Receiver
from .simulator import MicroBatchEngine

__all__ = [
    "BackPressureController",
    "BatchInfo",
    "BatchQueue",
    "MicroBatchEngine",
    "PIDRateEstimator",
    "QueuedBatch",
    "ReceivedBatch",
    "Receiver",
    "StreamingConfig",
    "StreamingContext",
    "StreamingListener",
    "StreamingMetrics",
]

"""Spark Streaming micro-batch substrate (discrete-event simulation).

Receiver → batch queue → serialized micro-batch engine, with runtime
reconfiguration of batch interval and executor count, a JSON-reporting
listener (paper Fig. 4), and Spark's PID back-pressure estimator.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "backpressure": ("BackPressureController", "PIDRateEstimator"),
    "batch_queue": ("BatchQueue", "QueuedBatch"),
    "context": ("StreamingConfig", "StreamingContext"),
    "listener": ("StreamingListener",),
    "metrics": ("BatchInfo", "StreamingMetrics"),
    "receiver": ("Receiver",),
    "simulator": ("MicroBatchEngine",),
})

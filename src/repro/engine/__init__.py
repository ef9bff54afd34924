"""Spark batch engine substrate.

Stage/task job model, LPT list scheduler over heterogeneous executor
cores, and the overhead models (batch setup, coordination, executor
startup) that shape the paper's Fig. 2a and Fig. 3a curves.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "faults": ("NO_FAULTS", "FaultModel"),
    "job": ("BatchJob",),
    "overhead": ("DEFAULT_OVERHEAD", "ZERO_OVERHEAD", "OverheadModel"),
    "stage": ("Stage",),
    "task": ("TaskRun", "TaskSpec"),
    "task_scheduler": ("JobRun", "NoiseModel", "TaskScheduler"),
})

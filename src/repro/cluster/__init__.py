"""Heterogeneous cluster substrate (paper Table 2).

Models nodes (CPU speed factors, disk types), 1-core/1-GB executors, and a
resource manager that launches/decommissions executors at runtime — the
substrate NoStop's executor-count parameter acts on.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cluster": ("Cluster", "homogeneous_cluster", "paper_cluster"),
    "executor": (
        "DEFAULT_EXECUTOR_CORES", "DEFAULT_EXECUTOR_MEMORY_GB", "Executor",
    ),
    "node": (
        "I5_9400", "I5_10400", "XEON_BRONZE_3204", "CpuSpec", "DiskType",
        "Node", "NodeRole",
    ),
    "resource_manager": ("InsufficientResourcesError", "ResourceManager"),
})

"""The layer profiler's entry points resolve, and tracing leaves no trace.

``perfbench.tracing.traced`` wraps every entry point on the class that
defines it and restores it on exit.  A class that merely *inherits* a
wrapped method would keep the parent's wrapper after the block, so the
pipeline's per-tier classes must each define the methods listed there.
"""

from perfbench.tracing import SpanRecorder, entry_points, traced


def test_entry_points_resolve_and_restore():
    points = entry_points()
    before = {}
    for _layer, owner, attr, _hook in points:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr} is gone"
        before[(owner, attr)] = getattr(owner, attr)
    with traced(SpanRecorder()):
        pass
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original, (
            f"{owner.__name__}.{attr} still wrapped after tracing"
        )

"""Supervised, journaled sweep runner with a deterministic result cache.

The experiment layer's execution engine: declarative sweep specs
(:mod:`~repro.runner.spec`) expand into pure simulation cells
(:mod:`~repro.runner.cells`), which a :class:`SweepRunner` serves from
a content-addressed on-disk cache (:mod:`~repro.runner.cache`), replays
from a crash-safe write-ahead journal (:mod:`~repro.runner.journal`),
or executes under a fault-tolerant supervisor
(:mod:`~repro.runner.supervisor`) — parallel results bit-identical to
sequential, reruns of unchanged sweeps free, interrupted sweeps
resumable, and failures structured instead of fatal.  See DESIGN.md
§12 and §14.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": (
        "CACHE_ENV", "ResultCache", "cell_digest", "default_cache_dir",
        "substrate_version_tag",
    ),
    "cells": ("cell_kinds", "execute_cell", "register_cell"),
    "journal": ("KILL_AFTER_ENV", "SweepJournal", "spec_digest"),
    "runner": ("SweepResult", "SweepRunner", "SweepStats"),
    "spec": ("SweepCell", "SweepSpec", "canonical_json", "spawn_seeds"),
    "supervisor": ("CellFailure", "CellSupervisor", "RetryPolicy", "is_failure"),
})

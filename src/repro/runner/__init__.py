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

from .cache import (
    CACHE_ENV,
    ResultCache,
    cell_digest,
    default_cache_dir,
    substrate_version_tag,
)
from .cells import cell_kinds, execute_cell, register_cell
from .journal import KILL_AFTER_ENV, SweepJournal, spec_digest
from .runner import SweepResult, SweepRunner, SweepStats
from .spec import SweepCell, SweepSpec, canonical_json, spawn_seeds
from .supervisor import CellFailure, CellSupervisor, RetryPolicy, is_failure

__all__ = [
    "CACHE_ENV",
    "CellFailure",
    "CellSupervisor",
    "KILL_AFTER_ENV",
    "ResultCache",
    "RetryPolicy",
    "SweepCell",
    "SweepJournal",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "SweepStats",
    "canonical_json",
    "cell_digest",
    "cell_kinds",
    "default_cache_dir",
    "execute_cell",
    "is_failure",
    "register_cell",
    "spawn_seeds",
    "spec_digest",
    "substrate_version_tag",
]

"""The sweep runner: cache-aware, journaled, supervised fan-out.

``SweepRunner`` expands a :class:`~repro.runner.spec.SweepSpec` into
cells and resolves each one through a three-level hierarchy:

1. **journal replay** — when a :class:`~repro.runner.journal.SweepJournal`
   is attached (``repro sweep --resume``), cells already completed by an
   interrupted run are taken straight from the write-ahead log;
2. **cache** — the content-addressed
   :class:`~repro.runner.cache.ResultCache` serves unchanged cells from
   previous sweeps;
3. **supervised execution** — the rest run under a
   :class:`~repro.runner.supervisor.CellSupervisor`: per-cell timeouts,
   deterministic retries with backoff, worker-pool rebuilds on death,
   and structured :class:`~repro.runner.supervisor.CellFailure` results
   instead of exceptions.  A sweep always returns.

Results always come back **in spec order** and are bit-identical
regardless of worker count, because every cell is a pure function of
its parameter dict (see :mod:`repro.runner.cells`); the determinism
suite asserts exactly this, and the interrupt suite asserts that a
kill-and-resume sequence matches an uninterrupted run byte for byte.

Cache, journal, and supervisor traffic are accounted through the
standard metrics registry (``repro_runner_*`` / ``repro_supervisor_*``)
so sweeps show up in telemetry and the run report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import catalog
from repro.obs.registry import NOOP_REGISTRY, MetricsRegistry
from repro.obs.tracer import Telemetry

from .cache import ResultCache, substrate_version_tag
from .cells import cell_kinds, execute_cell
from .journal import SweepJournal
from .spec import SweepCell, SweepSpec
from .supervisor import CellSupervisor, RetryPolicy, is_failure


def _execute_indexed(
    payload: Tuple[int, str, Dict[str, Any]],
) -> Tuple[int, Dict[str, Any]]:
    """Worker entry point: run one cell, echoing its spec index."""
    index, kind, params = payload
    return index, execute_cell(kind, params)


@dataclass
class SweepStats:
    """Cache, journal, and execution accounting for one sweep run."""

    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    batches_executed: int = 0
    """Micro-batches simulated across executed cells (0 on a fully
    cached rerun — the verifiable 'zero simulations' claim)."""
    workers: int = 1
    wall_seconds: float = 0.0
    failed: int = 0
    """Cells abandoned as structured CellFailure results."""
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    journal_replayed: int = 0
    """Cells resumed from the write-ahead journal instead of running."""
    cache_self_healed: int = 0
    """Corrupt cache entries dropped (treated as misses) this run."""


@dataclass
class SweepResult:
    """Sweep outcome: per-cell results in spec order, plus accounting."""

    spec: SweepSpec
    cells: List[SweepCell]
    results: List[Dict[str, Any]]
    stats: SweepStats = field(default_factory=SweepStats)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[Dict[str, Any]]:
        """The structured CellFailure results, in spec order."""
        return [r for r in self.results if is_failure(r)]

    @property
    def ok(self) -> bool:
        return not self.failures


class SweepRunner:
    """Execute sweep specs with caching, journaling, and supervision.

    Parameters
    ----------
    workers:
        Worker processes for cell execution; ``<= 1`` runs in-process
        (unless a retry-policy timeout forces pool mode).  Results are
        identical either way — the knob trades wall-clock only.
    cache:
        Result cache; ``None`` disables persistence entirely.
    use_cache:
        When False, cached entries are ignored on read (``--no-cache``)
        but fresh results are still written for the next run.
    telemetry:
        Metrics destination; defaults to the no-op registry.
    journal:
        Write-ahead :class:`SweepJournal`.  When set, every resolved
        cell is durably logged and previously completed cells are
        replayed instead of re-run (``repro sweep --resume``).
    retry:
        The :class:`RetryPolicy` for supervised execution; ``None``
        uses the default (2 retries, no timeout).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        use_cache: bool = True,
        telemetry: Optional[Telemetry] = None,
        journal: Optional[SweepJournal] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.cache = cache
        self.use_cache = use_cache
        self.journal = journal
        self.retry = retry or RetryPolicy()
        self._telemetry = telemetry
        registry: MetricsRegistry = (
            telemetry.metrics if telemetry is not None else NOOP_REGISTRY
        )
        self._m_cells = catalog.instrument(
            registry, "repro_runner_cells_total"
        )
        self._m_hits = catalog.instrument(
            registry, "repro_runner_cache_hits_total"
        )
        self._m_misses = catalog.instrument(
            registry, "repro_runner_cache_misses_total"
        )
        self._m_executed = catalog.instrument(
            registry, "repro_runner_cells_executed_total"
        )
        self._m_seconds = catalog.instrument(
            registry, "repro_runner_sweep_seconds"
        )
        self._m_self_heal = catalog.instrument(
            registry, "repro_runner_cache_self_heal_total"
        )
        self._m_replays = catalog.instrument(
            registry, "repro_supervisor_journal_replays_total"
        )
        self._m_journal_corrupt = catalog.instrument(
            registry, "repro_runner_journal_corrupt_total"
        )
        #: Accumulated accounting across every ``run()`` on this runner
        #: (multi-stage drivers like Fig. 7 call it several times).
        self.totals = SweepStats(workers=self.workers)
        #: Every CellFailure result seen across runs, in arrival order —
        #: the CLI reports these per-cell even when a figure driver
        #: chokes on a failed cell downstream.
        self.failures: List[Dict[str, Any]] = []

    def _version_tag(self) -> str:
        if self.cache is not None:
            return self.cache.version_tag
        return substrate_version_tag()

    def run(self, spec: SweepSpec) -> SweepResult:
        """Expand, replay journal, serve from cache, supervise the rest."""
        if spec.kind not in cell_kinds():
            raise KeyError(
                f"unknown cell kind {spec.kind!r}; "
                f"expected one of {cell_kinds()}"
            )
        t0 = time.perf_counter()  # det: allow-wallclock (harness wall time)
        cells = spec.expand()
        results: List[Optional[Dict[str, Any]]] = [None] * len(cells)
        stats = SweepStats(cells=len(cells), workers=self.workers)
        self._m_cells.inc(len(cells))
        heal_before = self.cache.self_healed if self.cache is not None else 0

        # Level 1: write-ahead journal replay (resume an interrupted run).
        digest: Optional[str] = None
        version_tag: Optional[str] = None
        replayed: Dict[int, Dict[str, Any]] = {}
        if self.journal is not None:
            version_tag = self._version_tag()
            digest = self.journal.begin(spec, cells, version_tag)
            replayed = self.journal.replay(cells, version_tag)
            if self.journal.corrupt_lines_skipped:
                self._m_journal_corrupt.inc(self.journal.corrupt_lines_skipped)
            for index, result in replayed.items():
                results[index] = result
                stats.journal_replayed += 1
            if stats.journal_replayed:
                self._m_replays.inc(stats.journal_replayed)

        # Level 2: content-addressed cache.
        pending: List[SweepCell] = []
        for cell in cells:
            if cell.index in replayed:
                continue
            cached = (
                self.cache.get(cell)
                if (self.cache is not None and self.use_cache)
                else None
            )
            if cached is not None:
                results[cell.index] = cached
                stats.cache_hits += 1
                self._record_journal(digest, cell, version_tag, "ok", cached)
            else:
                pending.append(cell)
                stats.cache_misses += 1
        self._m_hits.inc(stats.cache_hits)
        self._m_misses.inc(stats.cache_misses)

        # Level 3: supervised execution of whatever remains.
        supervisor = CellSupervisor(
            workers=self.workers,
            policy=self.retry,
            telemetry=self._telemetry,
        )
        for index, result in supervisor.run_cells(pending):
            results[index] = result
            if is_failure(result):
                stats.failed += 1
                self.failures.append(result)
                self._record_journal(
                    digest, cells[index], version_tag, "failed", result
                )
                continue
            stats.executed += 1
            stats.batches_executed += int(result.get("batchesExecuted", 0))
            if self.cache is not None and not result.get("noCache"):
                self.cache.put(cells[index], result)
            self._record_journal(digest, cells[index], version_tag, "ok", result)
        self._m_executed.inc(stats.executed)
        stats.retries = supervisor.retries
        stats.timeouts = supervisor.timeouts
        stats.pool_rebuilds = supervisor.pool_rebuilds

        if self.cache is not None:
            stats.cache_self_healed = self.cache.self_healed - heal_before
            if stats.cache_self_healed:
                self._m_self_heal.inc(stats.cache_self_healed)

        stats.wall_seconds = time.perf_counter() - t0  # det: allow-wallclock
        self._m_seconds.observe(stats.wall_seconds)
        self.totals.cells += stats.cells
        self.totals.cache_hits += stats.cache_hits
        self.totals.cache_misses += stats.cache_misses
        self.totals.executed += stats.executed
        self.totals.batches_executed += stats.batches_executed
        self.totals.wall_seconds += stats.wall_seconds
        self.totals.failed += stats.failed
        self.totals.retries += stats.retries
        self.totals.timeouts += stats.timeouts
        self.totals.pool_rebuilds += stats.pool_rebuilds
        self.totals.journal_replayed += stats.journal_replayed
        self.totals.cache_self_healed += stats.cache_self_healed
        return SweepResult(
            spec=spec,
            cells=cells,
            results=results,  # type: ignore[arg-type]
            stats=stats,
        )

    def _record_journal(
        self,
        digest: Optional[str],
        cell: SweepCell,
        version_tag: Optional[str],
        status: str,
        result: Dict[str, Any],
    ) -> None:
        if self.journal is None or digest is None or version_tag is None:
            return
        self.journal.record_cell(digest, cell, version_tag, status, result)

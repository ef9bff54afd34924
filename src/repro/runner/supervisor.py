"""Supervised cell execution: retries, timeouts, pool rebuilds.

The plain ``ProcessPoolExecutor.map`` fan-out of the original runner
dies wholesale on one worker crash or hang — one poisoned cell discards
every completed sibling.  :class:`CellSupervisor` replaces it with a
small supervised worker pool built directly on :mod:`multiprocessing`:

* every cell attempt runs under a **per-cell timeout** (a hung worker is
  terminated and its slot respawned, not waited on forever);
* failed attempts are retried under a **deterministic backoff policy** —
  bounded exponential backoff whose jitter is drawn from a
  ``SeedSequence`` derived from the cell's canonical identity, so the
  retry schedule is bit-reproducible across runs and worker counts;
* failures are **classified**: ``crash`` (the cell function raised),
  ``timeout`` (the per-cell deadline passed), ``pool_broken`` (the
  worker process died without reporting — an OOM kill or hard crash,
  the ``BrokenProcessPool`` condition), and ``poisoned`` (the cell
  crashed deterministically on every attempt);
* a sweep **always returns**: a cell that exhausts its retries becomes a
  structured :class:`CellFailure` result dict (``cellFailure: true``)
  in spec order, never an exception out of ``run()``.

Everything is accounted through ``repro_supervisor_*`` metrics so
retries, timeouts, and pool rebuilds show up in telemetry and the run
report next to the cache counters.
"""

from __future__ import annotations

import hashlib
import queue as _queue
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import catalog
from repro.obs.registry import MetricsRegistry, NOOP_REGISTRY
from repro.obs.tracer import Telemetry

from .cells import execute_cell
from .spec import SweepCell

#: Result-dict marker distinguishing structured failures from results.
FAILURE_KEY = "cellFailure"

#: Per-attempt failure classifications.
FAIL_CRASH = "crash"
FAIL_TIMEOUT = "timeout"
FAIL_POOL_BROKEN = "pool_broken"
#: Final classification for a cell that crashed on every attempt — the
#: failure is deterministic, so retrying elsewhere will not help.
FAIL_POISONED = "poisoned"

#: How long the scheduler blocks on the result queue per poll.  Bounds
#: how late a deadline/dead-worker check can run; results arriving
#: earlier wake the scheduler immediately.
_POLL_SECONDS = 0.05


def is_failure(result: Optional[Dict[str, Any]]) -> bool:
    """Whether a cell result dict is a structured :class:`CellFailure`."""
    return bool(result) and bool(result.get(FAILURE_KEY))


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry policy applied to every supervised cell.

    ``max_retries`` is the number of *re*-tries: a cell gets
    ``max_retries + 1`` attempts total.  ``timeout_seconds`` is the
    per-attempt deadline (``None`` disables timeouts and lets
    ``workers=1`` sweeps stay fully in-process).  Backoff before retry
    ``n`` (0-based) is::

        min(backoff_base * backoff_factor**n, backoff_cap) * (1 + j)

    where ``j ~ Uniform(0, jitter)`` comes from the cell's own seeded
    generator — two runs retrying the same cell sleep the same amount.
    """

    max_retries: int = 2
    timeout_seconds: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1.0, got {self.backoff_factor}"
            )
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    @property
    def attempts(self) -> int:
        return self.max_retries + 1

    def backoff_seconds(self, retry: int, rng: np.random.Generator) -> float:
        """Deterministic backoff before the ``retry``-th re-attempt."""
        base = min(
            self.backoff_base * self.backoff_factor ** retry, self.backoff_cap
        )
        if self.jitter <= 0:
            return base
        return base * (1.0 + self.jitter * float(rng.random()))


def cell_backoff_rng(cell: SweepCell) -> np.random.Generator:
    """Backoff-jitter generator seeded from the cell's canonical identity.

    The entropy is the cell's content digest, so the retry schedule
    depends only on *what* is being retried — never on worker count,
    execution order, or wall clock.
    """
    digest = hashlib.sha256(cell.canonical().encode()).digest()
    entropy = int.from_bytes(digest[:16], "big")
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class CellFailure:
    """A cell that failed every attempt, as structured data.

    Serialized via :meth:`to_result` into the sweep's result list so a
    failed cell occupies its spec slot with a JSON-safe dict instead of
    blowing up the whole sweep.
    """

    index: int
    kind: str
    failure: str
    """Final classification: crash / timeout / pool_broken / poisoned."""
    attempts: int
    error: str
    """Message of the last attempt's error (empty for timeouts)."""
    attempt_failures: Tuple[str, ...] = ()
    """Per-attempt classifications, in attempt order."""
    backoffs: Tuple[float, ...] = ()
    """Deterministic backoff waits (seconds) between attempts."""

    def to_result(self) -> Dict[str, Any]:
        return {
            FAILURE_KEY: True,
            "failure": self.failure,
            "cellIndex": self.index,
            "cellKind": self.kind,
            "attempts": self.attempts,
            "attemptFailures": list(self.attempt_failures),
            "backoffs": [round(b, 6) for b in self.backoffs],
            "error": self.error,
            "batchesExecuted": 0,
        }


def classify_final(attempt_failures: Tuple[str, ...]) -> str:
    """Final failure kind for a cell that exhausted its attempts.

    A cell that crashed on *every* attempt is ``poisoned`` — its failure
    is deterministic and no amount of retrying or pool rebuilding will
    change it; otherwise the last attempt's classification stands.
    """
    if attempt_failures and all(f == FAIL_CRASH for f in attempt_failures):
        return FAIL_POISONED
    return attempt_failures[-1] if attempt_failures else FAIL_CRASH


@dataclass
class _Attempt:
    """Mutable retry state for one pending cell."""

    cell: SweepCell
    rng: np.random.Generator
    attempt: int = 0
    failures: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    backoffs: List[float] = field(default_factory=list)
    ready_at: float = 0.0
    """Monotonic time before which this attempt must not be dispatched
    (backoff gate)."""


def _worker_main(task_queue, result_queue) -> None:
    """Worker-process loop: execute cells until told to stop.

    Results travel back as ``(index, status, payload)`` where status is
    ``"ok"`` (payload = result dict) or ``"error"`` (payload = message).
    A worker that dies mid-cell simply never reports — the supervisor
    notices the corpse and classifies the attempt ``pool_broken``.
    """
    while True:
        item = task_queue.get()
        if item is None:
            return
        index, kind, params = item
        try:
            result = execute_cell(kind, params)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            result_queue.put(
                (index, "error", f"{type(exc).__name__}: {exc}")
            )
        else:
            result_queue.put((index, "ok", result))


@dataclass
class _Worker:
    """One supervised worker process and what it is currently running.

    Each worker has its **own** task queue: dispatch targets a specific
    process, so the supervisor always knows exactly which attempt died
    with which worker.  (A shared queue would let one worker steal a
    sibling's task and silently invalidate the timeout/death
    bookkeeping.)
    """

    process: Any
    task_queue: Any
    task: Optional[_Attempt] = None
    deadline: float = float("inf")

    @property
    def idle(self) -> bool:
        return self.task is None


class CellSupervisor:
    """Run sweep cells under retries, timeouts, and pool supervision.

    Parameters
    ----------
    workers:
        Worker processes.  ``workers=1`` with no timeout configured runs
        cells in-process (cheapest, still retried); any timeout forces
        pool mode even at ``workers=1`` because an in-process hang
        cannot be preempted.
    policy:
        The :class:`RetryPolicy`; defaults to 2 retries, no timeout.
    telemetry:
        Metrics destination for the ``repro_supervisor_*`` instruments.
    sleep:
        Injectable sleep (tests pass a recorder to assert the backoff
        schedule without actually waiting).
    """

    def __init__(
        self,
        workers: int = 1,
        policy: Optional[RetryPolicy] = None,
        telemetry: Optional[Telemetry] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.policy = policy or RetryPolicy()
        self._sleep = sleep
        registry: MetricsRegistry = (
            telemetry.metrics if telemetry is not None else NOOP_REGISTRY
        )
        self._m_retries = catalog.instrument(
            registry, "repro_supervisor_retries_total"
        )
        self._m_timeouts = catalog.instrument(
            registry, "repro_supervisor_timeouts_total"
        )
        self._m_rebuilds = catalog.instrument(
            registry, "repro_supervisor_pool_rebuilds_total"
        )
        self._m_failures = catalog.instrument(
            registry, "repro_supervisor_cell_failures_total"
        )
        #: Accounting for the most recent :meth:`run_cells` call.
        self.retries = 0
        self.timeouts = 0
        self.pool_rebuilds = 0
        self.cell_failures = 0

    # -- public entry --------------------------------------------------------

    def run_cells(
        self, pending: List[SweepCell]
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Execute ``pending`` cells; returns ``(index, result)`` pairs.

        Every cell yields exactly one pair — a real result or a
        :class:`CellFailure` dict — ordered by spec index.
        """
        if not pending:
            return []
        use_pool = (
            self.workers > 1 and len(pending) > 1
        ) or self.policy.timeout_seconds is not None
        if use_pool:
            out = self._run_pooled(pending)
        else:
            out = self._run_inline(pending)
        return sorted(out, key=lambda pair: pair[0])

    # -- in-process path -----------------------------------------------------

    def _run_inline(
        self, pending: List[SweepCell]
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """Sequential in-process execution with crash retries.

        Timeouts are not enforceable here (no preemption inside one
        process); the constructor routes any timeout policy to the pool.
        """
        out: List[Tuple[int, Dict[str, Any]]] = []
        for cell in pending:
            state = _Attempt(cell=cell, rng=cell_backoff_rng(cell))
            result: Optional[Dict[str, Any]] = None
            while state.attempt < self.policy.attempts:
                state.attempt += 1
                try:
                    result = execute_cell(cell.kind, cell.param_dict)
                    break
                except BaseException as exc:  # noqa: BLE001 - classify + retry
                    self._note_attempt_failure(
                        state, FAIL_CRASH, f"{type(exc).__name__}: {exc}"
                    )
            if result is not None:
                out.append((cell.index, result))
            else:
                out.append((cell.index, self._abandon(state)))
        return out

    # -- pooled path ---------------------------------------------------------

    def _run_pooled(
        self, pending: List[SweepCell]
    ) -> List[Tuple[int, Dict[str, Any]]]:
        import multiprocessing as mp

        ctx = mp.get_context()
        result_queue = ctx.Queue()
        pool: List[_Worker] = [
            self._spawn(ctx, result_queue)
            for _ in range(min(self.workers, len(pending)))
        ]
        waiting: List[_Attempt] = [
            _Attempt(cell=c, rng=cell_backoff_rng(c)) for c in pending
        ]
        by_index: Dict[int, _Attempt] = {a.cell.index: a for a in waiting}
        done: Dict[int, Dict[str, Any]] = {}
        try:
            while waiting or any(not w.idle for w in pool):
                self._dispatch(pool, waiting)
                self._collect_results(
                    pool, result_queue, by_index, waiting, done
                )
                self._reap_timeouts(pool, ctx, result_queue, waiting, done)
                self._reap_dead(pool, ctx, result_queue, waiting, done)
        finally:
            self._shutdown(pool)
        return list(done.items())

    def _spawn(self, ctx, result_queue) -> _Worker:
        task_queue = ctx.Queue()
        process = ctx.Process(
            target=_worker_main, args=(task_queue, result_queue), daemon=True
        )
        process.start()
        return _Worker(process=process, task_queue=task_queue)

    def _respawn(self, pool, slot, ctx, result_queue) -> None:
        """Replace a dead/killed worker and account the rebuild."""
        pool[slot] = self._spawn(ctx, result_queue)
        self.pool_rebuilds += 1
        self._m_rebuilds.inc()

    def _dispatch(self, pool, waiting) -> None:
        """Hand ready attempts to idle workers (backoff gates honored)."""
        now = time.monotonic()  # det: allow-wallclock (scheduler only)
        for worker in pool:
            if not worker.idle:
                continue
            ready = next(
                (a for a in waiting if a.ready_at <= now), None
            )
            if ready is None:
                return
            waiting.remove(ready)
            ready.attempt += 1
            worker.task = ready
            timeout = self.policy.timeout_seconds
            worker.deadline = (
                now + timeout if timeout is not None else float("inf")
            )
            worker.task_queue.put(
                (ready.cell.index, ready.cell.kind, ready.cell.param_dict)
            )

    def _collect_results(
        self, pool, result_queue, by_index, waiting, done
    ) -> None:
        """Collect finished attempts; block briefly so polling is cheap."""
        block = True
        while True:
            try:
                index, status, payload = result_queue.get(
                    timeout=_POLL_SECONDS if block else 0.0
                )
            except _queue.Empty:
                return
            block = False  # drain the rest without waiting
            state = by_index[index]
            worker = next((w for w in pool if w.task is state), None)
            if worker is not None:
                worker.task = None
                worker.deadline = float("inf")
            if index in done:
                # Stale duplicate: the worker reported just before a
                # timeout reap terminated it and the retry already
                # resolved the cell.  Cells are pure, so drop it.
                continue
            if status == "ok":
                done[index] = payload
                if state in waiting:
                    # Same race, other order: the original attempt's
                    # result arrived after the cell was requeued.
                    waiting.remove(state)
            else:
                self._note_attempt_failure(state, FAIL_CRASH, str(payload))
                self._requeue_or_abandon(state, waiting, done)

    def _reap_timeouts(self, pool, ctx, result_queue, waiting, done) -> None:
        """Kill workers whose cell blew its deadline; respawn the slot."""
        now = time.monotonic()  # det: allow-wallclock (scheduler only)
        for slot, worker in enumerate(pool):
            if worker.idle or worker.deadline > now:
                continue
            state = worker.task
            worker.process.terminate()
            worker.process.join()
            self.timeouts += 1
            self._m_timeouts.inc()
            self._respawn(pool, slot, ctx, result_queue)
            self._note_attempt_failure(state, FAIL_TIMEOUT, "")
            self._requeue_or_abandon(state, waiting, done)

    def _reap_dead(self, pool, ctx, result_queue, waiting, done) -> None:
        """Detect workers that died without reporting (OOM, hard kill)."""
        for slot, worker in enumerate(pool):
            if worker.process.is_alive():
                continue
            state = worker.task
            worker.process.join()
            self._respawn(pool, slot, ctx, result_queue)
            if state is None:
                continue  # died idle; fresh worker takes over
            self._note_attempt_failure(
                state,
                FAIL_POOL_BROKEN,
                f"worker exited with code {worker.process.exitcode}",
            )
            self._requeue_or_abandon(state, waiting, done)

    def _shutdown(self, pool) -> None:
        """Stop every worker (idle ones get the sentinel, busy ones die)."""
        for worker in pool:
            if worker.idle:
                worker.task_queue.put(None)
            else:
                worker.process.terminate()
        for worker in pool:
            worker.process.join(timeout=5.0)

    # -- shared retry bookkeeping -------------------------------------------

    def _note_attempt_failure(
        self, state: _Attempt, failure: str, error: str
    ) -> None:
        state.failures.append(failure)
        if error:
            state.errors.append(error)
        if state.attempt < self.policy.attempts:
            wait = self.policy.backoff_seconds(
                len(state.backoffs), state.rng
            )
            state.backoffs.append(wait)
            state.ready_at = (
                time.monotonic() + wait  # det: allow-wallclock (scheduler only)
            )
            self.retries += 1
            self._m_retries.inc()
            self._sleep(wait)

    def _requeue_or_abandon(
        self, state: _Attempt, waiting: List[_Attempt], done
    ) -> None:
        if state.attempt < self.policy.attempts:
            waiting.append(state)
        else:
            done[state.cell.index] = self._abandon(state)

    def _abandon(self, state: _Attempt) -> Dict[str, Any]:
        self.cell_failures += 1
        self._m_failures.inc()
        failures = tuple(state.failures)
        return CellFailure(
            index=state.cell.index,
            kind=state.cell.kind,
            failure=classify_final(failures),
            attempts=state.attempt,
            error=state.errors[-1] if state.errors else "",
            attempt_failures=failures,
            backoffs=tuple(state.backoffs),
        ).to_result()

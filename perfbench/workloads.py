"""The benchmark's workloads.

Each workload is one operation of a command people run, split in two:
``run`` is the timed part and returns the live objects it built;
``judge`` runs after the clock stops and turns them into an
:class:`Outcome` — batches simulated, a digest of the simulated
outputs, the tuning-quality numbers, and any failed correctness check.

Inputs are rate traces in simulated time, so load is open-loop: a slower
simulator does not receive less input.  One benchmark run covers
:data:`INPUTS` inputs, each seeded from the run seed, so the tuning
numbers average over several inputs instead of hanging on one.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.check.oracles import run_oracles
from repro.experiments.common import build_experiment, judged_chaos_run
from repro.fast.invariants import check_fast_run
from repro.runner import ResultCache, SweepRunner, SweepSpec, is_failure
from repro.tuners import (
    build_leaderboard,
    render_leaderboard,
    scenario_trace,
    tuner_names,
)

#: Inputs (seeds) one benchmark run covers.
INPUTS = 12

#: End-to-end delay above which a batch violates the SLO (seconds), the
#: tournament's default.
SLO_DELAY = 30.0


def input_seeds(seed: int) -> List[int]:
    """The inputs of the run with seed ``seed``; disjoint across seeds."""
    return [seed * INPUTS + i for i in range(INPUTS)]


@dataclass
class Outcome:
    """What one operation produced, judged outside the timed region."""

    batches: int
    digest: str
    tune: Dict[str, float]
    """``best_delay_s``, ``convergence_batches``, ``slo_violation_s``,
    ``reconfig_s`` — simulated quantities, identical on every run of
    one input."""
    problems: List[str] = field(default_factory=list)


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _batch_series(setup) -> str:
    batches = setup.context.listener.metrics.batches
    return json.dumps([b.to_dict() for b in batches], sort_keys=True)


def _slo_violation(batches) -> float:
    return float(sum(b.interval for b in batches if b.end_to_end_delay > SLO_DELAY))


def conservation_problems(setup) -> List[str]:
    """Record conservation on an exact-tier run, from public counters.

    Every produced record is consumed or still lagging in Kafka, and
    every consumed record was processed, waits in the batch queue, or
    was dropped with an evicted batch.
    """
    ctx = setup.context
    produced = setup.generator.producer.total_produced
    consumer = ctx.receiver.consumer
    consumed = consumer.total_consumed
    lag = consumer.lag()
    processed = ctx.listener.metrics.total_records()
    queued = ctx.queue.queued_records()
    dropped = ctx.queue.total_dropped_records
    problems = []
    if produced != consumed + lag:
        problems.append(
            f"produced {produced} != consumed {consumed} + lag {lag}"
        )
    if consumed != processed + queued + dropped:
        problems.append(
            f"consumed {consumed} != processed {processed} + queued "
            f"{queued} + dropped {dropped}"
        )
    return problems


class ExactSteady:
    name = "exact_steady"
    why = (
        "exact tier at a fixed 10 s x 10 executor config near rho=1, "
        "telemetry off: only the per-batch DES pipeline runs"
    )
    #: Batch boundaries per operation (6000 simulated seconds).
    BATCHES = 600

    def run(self, seed: int, scratch: Path) -> Any:
        setup = build_experiment("logistic_regression", seed=seed)
        setup.context.advance_batches(self.BATCHES)
        return setup

    def judge(self, setup) -> Outcome:
        batches = setup.context.listener.metrics.batches
        problems = conservation_problems(setup)
        problems += [
            f"oracle {o.oracle}: expected {o.expected:.4f}, got {o.actual:.4f}"
            for o in run_oracles(setup)
            if not o.passed
        ]
        # A fixed configuration is the only one "found": its delay is the
        # best delay, and the pause rule never fires.
        return Outcome(
            batches=len(batches),
            digest=_digest(_batch_series(setup)),
            tune={
                "best_delay_s": statistics.fmean(
                    b.end_to_end_delay for b in batches
                ),
                "convergence_batches": float(len(batches)),
                "slo_violation_s": _slo_violation(batches),
                "reconfig_s": setup.context.engine.total_pause_injected,
            },
            problems=problems,
        )


class ChaosReport:
    name = "chaos_report"
    why = (
        "what repro report runs: NoStop under faults and a rate shift with "
        "telemetry on, judged and rendered; stresses obs and chaos"
    )
    ROUNDS = 40

    def run(self, seed: int, scratch: Path) -> Any:
        run = judged_chaos_run("wordcount", rounds=self.ROUNDS, seed=seed)
        report = run.report
        return run, (report.to_json(), report.render_text(), report.render_html())

    def judge(self, state) -> Outcome:
        run, (report_json, text, html) = state
        setup = run.setup
        batches = setup.context.listener.metrics.batches
        nostop = run.chaos.nostop
        problems = conservation_problems(setup)
        if json.loads(report_json)["batches"] != len(batches):
            problems.append("report batch count disagrees with the listener")
        if not text or not html:
            problems.append("empty report rendering")
        if run.chaos.engine.injections < 1:
            problems.append("no chaos fault fired")
        if nostop.best is None:
            problems.append("NoStop evaluated no configuration")
        pause = nostop.first_pause_time
        converged = (
            len(batches) if pause is None
            else sum(1 for b in batches if b.processing_end <= pause)
        )
        return Outcome(
            batches=len(batches),
            digest=_digest(report_json, text, html, _batch_series(setup)),
            tune={
                "best_delay_s": (
                    nostop.best.end_to_end_delay if nostop.best else 0.0
                ),
                "convergence_batches": float(converged),
                "slo_violation_s": _slo_violation(batches),
                "reconfig_s": setup.context.engine.total_pause_injected,
            },
            problems=problems,
        )


class TournamentVec:
    name = "tournament_vec"
    why = (
        "what repro tournament runs: 7 tuners x steady/step/spike, "
        "vectorized tier, fresh cache; stresses fast, core and tuners"
    )
    SCENARIOS = ("steady", "step", "spike")
    BUDGET = 30

    def run(self, seed: int, scratch: Path) -> Any:
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        spec = SweepSpec(
            name="tournament",
            kind="tournament",
            base={
                "workload": "wordcount",
                "budget": self.BUDGET,
                "fidelity": "vectorized",
                "slo_delay": SLO_DELAY,
            },
            grid={
                "tuner": tuner_names(),
                "scenario": list(self.SCENARIOS),
                "seed": [seed],
            },
        )
        runner = SweepRunner(workers=1, cache=ResultCache(cache_dir))
        sweep = runner.run(spec)
        payload = build_leaderboard(
            sweep.results,
            budget=self.BUDGET,
            slo_delay=SLO_DELAY,
            fidelity="vectorized",
        )
        return seed, cache_dir, sweep, payload, render_leaderboard(payload)

    def judge(self, state) -> Outcome:
        seed, cache_dir, sweep, payload, text = state
        shutil.rmtree(cache_dir, ignore_errors=True)
        rows = sweep.results
        problems = [
            f"cell {r.get('cellIndex')} failed: {r.get('error')}"
            for r in rows if is_failure(r)
        ]
        want = len(tuner_names()) * len(self.SCENARIOS)
        if len(rows) != want or sweep.stats.executed != want:
            problems.append(
                f"{sweep.stats.executed} of {want} cells executed"
            )
        problems += self._fast_tier_problems(seed)
        good = [r for r in rows if not is_failure(r)] or [{}]
        return Outcome(
            batches=sweep.stats.batches_executed,
            digest=_digest(
                json.dumps(payload, sort_keys=True),
                json.dumps(rows, sort_keys=True),
                text,
            ),
            tune={
                key: statistics.fmean(float(r.get(col, 0.0)) for r in good)
                for key, col in (
                    ("best_delay_s", "bestDelay"),
                    ("convergence_batches", "convergenceBatches"),
                    ("slo_violation_s", "sloViolationSeconds"),
                    ("reconfig_s", "reconfigSeconds"),
                )
            },
            problems=problems,
        )

    @staticmethod
    def _fast_tier_problems(seed: int) -> List[str]:
        """Fast-tier invariants on a vectorized run of the spike scenario."""
        setup = build_experiment(
            "wordcount",
            seed=seed,
            rate_trace=scenario_trace("spike", "wordcount"),
            fidelity="vectorized",
        )
        setup.context.advance_batches(200)
        _checks, violations = check_fast_run(setup.context)
        return [f"fast tier: {v.invariant}: {v.message}" for v in violations]


WORKLOADS = {w.name: w for w in (ExactSteady(), ChaosReport(), TournamentVec())}

"""Fast-tier simulation core.

The exact DES (:mod:`repro.streaming`) walks every record, tick, and
task; that fidelity is the repository's ground truth, but it caps the
scale a sweep can touch.  This package provides two cheaper fidelity
tiers that reproduce the *batch-level* observables the rest of the
repository consumes — interval, scheduling delay, processing time,
end-to-end delay — without ever materializing a record, a task, or a
per-tick producer append:

* ``vectorized`` — task durations for whole *blocks* of future batches
  are drawn as numpy arrays from the calibrated workload cost models,
  and the LPT makespan is folded across executor cores vectorized
  (:class:`~repro.fast.engine.FastBatchEngine`).  Stochastically
  faithful: same cost model, same mean-1 lognormal noise, same overhead
  charges as the exact scheduler.
* ``fluid`` — the closed forms the analytic oracles encode
  (utilization-law processing time, steady-state delay identity)
  evaluated directly; deterministic and effectively free.

Both tiers sit behind :class:`~repro.fast.context.FastStreamingContext`,
a :class:`~repro.streaming.context.StreamingContext` that runs the one
batch-formation loop, batch queue and drain loop and swaps in only the
record source (:class:`~repro.fast.context.TraceSource`) and the batch
coster (:class:`~repro.fast.engine.FastBatchEngine`), so NoStop's
controller, the SLO judge, the figure drivers, and
``repro check`` (with its live invariant engine) consume fast-tier runs
unchanged.  Select a tier with the ``fidelity`` knob on
:func:`repro.experiments.common.build_experiment`, on sweep cells, or
via ``repro sweep --fidelity``.
"""

from repro._exports import lazy_exports

#: The fidelity tiers ``build_experiment`` / the cells / the CLI accept.
FIDELITIES = ("exact", "vectorized", "fluid")

#: The tiers served by this package (everything but the exact DES).
FAST_FIDELITIES = ("vectorized", "fluid")

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "": ("FIDELITIES", "FAST_FIDELITIES"),
    "context": ("FastStreamingContext",),
    "engine": ("ExecutorProfile", "FastBatchEngine"),
    "invariants": ("check_fast_run",),
})

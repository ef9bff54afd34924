"""Correctness subsystem: runtime invariants, analytic oracles, linter.

The reproduction substitutes the authors' physical cluster with a
discrete-event simulator, so simulator *fidelity bugs* are the dominant
threat to every figure.  This package provides three lines of defense:

* :mod:`repro.check.invariants` — an engine hooked at batch boundaries
  (the chaos engine's injection point) that checks conservation laws the
  simulator must obey no matter what the configuration or fault schedule
  does: record conservation across the Kafka → receiver → queue → engine
  path, simulation-clock monotonicity, queue accounting, scheduling-delay
  slack bounded by injected reconfiguration pauses, and executor
  busy-time ≤ wall-time × cores.
* :mod:`repro.check.oracles` — closed-form expectations (steady-state
  delay identity, utilization-law processing time) compared against
  simulator output within stated tolerances, plus the metamorphic
  relations of :mod:`repro.check.metamorphic`.
* :mod:`repro.check.lint` — an AST determinism linter for the hazard
  class (unseeded RNGs, wall-clock reads, unordered iteration) that
  would silently break the runner's bit-identity and cache guarantees.

``repro check`` / ``repro lint`` expose all three on the CLI.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "invariants": ("InvariantEngine",),
    "lint": ("LintFinding", "lint_file", "lint_paths", "lint_source"),
    "metamorphic": ("executor_homogeneity_check", "time_dilation_check"),
    "oracles": (
        "run_oracles", "steady_state_delay_oracle", "utilization_oracle",
    ),
    "run": ("run_check",),
    "violations": ("CheckReport", "InvariantViolation", "OracleResult"),
})

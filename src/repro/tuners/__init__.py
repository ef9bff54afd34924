"""Optimizer zoo behind the unified ask/observe/checkpoint protocol.

The registry (:func:`~repro.tuners.base.tuner_names`,
:func:`~repro.tuners.base.make_tuner`) loads every built-in tuner on
first read:

``nostop`` (SPSA + ρ schedule), ``bo`` (GP + expected improvement),
``annealing``, ``random``, ``grid``, ``rl`` (tabular Q-learning over
telemetry states), and ``safe-online`` (trust-region moves with
SLO-aware acceptance).

See :mod:`repro.tuners.base` for the protocol and the run driver,
:mod:`repro.tuners.tournament` for scenarios and the leaderboard.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "adapters": ("NoStopTuner",),
    "base": (
        "Tuner", "clamp_objective", "make_tuner", "register_tuner",
        "run_tuner", "tuner_names",
    ),
    "tournament": (
        "DEFAULT_SCENARIOS", "build_leaderboard", "render_leaderboard",
        "scenario_names", "scenario_trace", "tournament_space",
    ),
})

"""Optimizer zoo behind the unified ask/observe/checkpoint protocol.

Importing this package registers every built-in tuner:

``nostop`` (SPSA + ρ schedule), ``bo`` (GP + expected improvement),
``annealing``, ``random``, ``grid``, ``rl`` (tabular Q-learning over
telemetry states), and ``safe-online`` (trust-region moves with
SLO-aware acceptance).

See :mod:`repro.tuners.base` for the protocol and the run driver,
:mod:`repro.tuners.tournament` for scenarios and the leaderboard.
"""

from .adapters import (
    AnnealingTuner,
    BOTuner,
    GridTuner,
    NoStopTuner,
    RandomTuner,
    grid_points,
)
from .base import (
    DIVERGENCE_PENALTY,
    Tuner,
    TunerRunReport,
    clamp_objective,
    make_tuner,
    register_tuner,
    run_tuner,
    tuner_names,
)
from .rl import RLTuner
from .safe_online import SafeOnlineTuner
from .tournament import (
    DEFAULT_SCENARIOS,
    SCORE_COLUMNS,
    TOURNAMENT_SCENARIOS,
    build_leaderboard,
    render_leaderboard,
    scenario_names,
    scenario_trace,
    tournament_space,
)

__all__ = [
    "AnnealingTuner",
    "BOTuner",
    "DEFAULT_SCENARIOS",
    "DIVERGENCE_PENALTY",
    "GridTuner",
    "NoStopTuner",
    "RLTuner",
    "RandomTuner",
    "SCORE_COLUMNS",
    "SafeOnlineTuner",
    "TOURNAMENT_SCENARIOS",
    "Tuner",
    "TunerRunReport",
    "build_leaderboard",
    "clamp_objective",
    "grid_points",
    "make_tuner",
    "register_tuner",
    "render_leaderboard",
    "run_tuner",
    "scenario_names",
    "scenario_trace",
    "tournament_space",
    "tuner_names",
]

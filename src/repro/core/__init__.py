"""NoStop core: the paper's contribution.

SPSA's building blocks (gain sequences, Bernoulli perturbations, bound
projection), the penalized SSPO objective, the Adjust measurement
function, the §5 operational rules (metric collection, pause, rate
reset), and the :class:`NoStopController` tying them to a controlled
streaming system.  The SPSA iterate itself is
:class:`~repro.tuners.adapters.NoStopTuner`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "adjust": (
        "AdjustFunction", "AdjustResult", "ControlledSystem",
        "evaluate_config", "theta_to_configuration",
    ),
    "bounds": (
        "Box", "MinMaxScaler", "multi_parameter_space",
        "paper_configuration_space",
    ),
    "gains": ("GainSchedule", "paper_gains"),
    "metrics_collector": ("Measurement", "MetricsCollector"),
    "nostop": ("NoStopController", "NoStopReport", "RoundRecord"),
    "objective": ("RhoSchedule", "penalized_objective"),
    "pause": (
        "EvaluatedConfig", "PauseRule", "confirm_best", "steady_state_delay",
    ),
    "perturbation": (
        "BernoulliPerturbation", "PerturbationGenerator",
        "SegmentedUniformPerturbation",
    ),
    "rate_monitor": ("RateMonitor",),
    "system": ("SimulatedSparkSystem",),
    "tuning": ("suggest_gains",),
})

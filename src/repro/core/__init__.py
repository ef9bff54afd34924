"""NoStop core: the paper's contribution.

SPSA optimization (gain sequences, Bernoulli perturbations, bound
projection), the penalized SSPO objective, the Adjust measurement
function, the §5 operational rules (metric collection, pause, rate
reset), and the :class:`NoStopController` tying them to a controlled
streaming system.
"""

from .adjust import (
    AdjustFunction,
    AdjustResult,
    ControlledSystem,
    evaluate_config,
    theta_to_configuration,
)
from .bounds import Box, MinMaxScaler, multi_parameter_space, paper_configuration_space
from .gains import DEFAULT_ALPHA, DEFAULT_GAMMA, GainSchedule, paper_gains
from .metrics_collector import Measurement, MetricsCollector
from .nostop import NoStopController, NoStopReport, RoundRecord
from .objective import RhoSchedule, penalized_objective
from .pause import EvaluatedConfig, PauseRule, confirm_best, steady_state_delay
from .perturbation import (
    BernoulliPerturbation,
    PerturbationGenerator,
    SegmentedUniformPerturbation,
)
from .rate_monitor import RateMonitor
from .spsa import SPSAIteration, SPSAOptimizer
from .spsa_variants import AveragedSPSA, OneMeasurementSPSA
from .system import SimulatedSparkSystem
from .tuning import suggest_gains

__all__ = [
    "AdjustFunction",
    "AdjustResult",
    "BernoulliPerturbation",
    "Box",
    "ControlledSystem",
    "DEFAULT_ALPHA",
    "DEFAULT_GAMMA",
    "EvaluatedConfig",
    "GainSchedule",
    "Measurement",
    "MetricsCollector",
    "MinMaxScaler",
    "NoStopController",
    "NoStopReport",
    "PauseRule",
    "PerturbationGenerator",
    "RateMonitor",
    "RhoSchedule",
    "RoundRecord",
    "AveragedSPSA",
    "OneMeasurementSPSA",
    "SPSAIteration",
    "SPSAOptimizer",
    "SegmentedUniformPerturbation",
    "SimulatedSparkSystem",
    "confirm_best",
    "evaluate_config",
    "multi_parameter_space",
    "paper_configuration_space",
    "paper_gains",
    "penalized_objective",
    "steady_state_delay",
    "suggest_gains",
    "theta_to_configuration",
]

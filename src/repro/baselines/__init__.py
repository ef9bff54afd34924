"""Non-searching comparators and the BO building blocks.

Spark back pressure and the fixed/default configuration run here.  The
searching optimizers — Bayesian optimization, simulated annealing,
random and grid search — live in :mod:`repro.tuners` and all run
through :func:`repro.tuners.run_tuner`; this package keeps the
from-scratch GP and acquisition functions Bayesian optimization is
built on.
"""

from .acquisition import expected_improvement, lower_confidence_bound
from .backpressure import BackPressureRunResult, run_backpressure
from .fixed import DEFAULT_CONFIGURATION, FixedRunResult, run_fixed_configuration
from .gp import GaussianProcess, rbf_kernel

__all__ = [
    "BackPressureRunResult",
    "DEFAULT_CONFIGURATION",
    "FixedRunResult",
    "GaussianProcess",
    "expected_improvement",
    "lower_confidence_bound",
    "rbf_kernel",
    "run_backpressure",
    "run_fixed_configuration",
]

"""Non-searching comparators and the BO building blocks.

Spark back pressure and the fixed/default configuration run here.  The
searching optimizers — Bayesian optimization, simulated annealing,
random and grid search — live in :mod:`repro.tuners` and all run
through :func:`repro.tuners.run_tuner`; this package keeps the
from-scratch GP and acquisition function Bayesian optimization is
built on.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "acquisition": ("expected_improvement",),
    "backpressure": ("BackPressureRunResult", "run_backpressure"),
    "fixed": (
        "DEFAULT_CONFIGURATION", "FixedRunResult", "run_fixed_configuration",
    ),
    "gp": ("GaussianProcess", "rbf_kernel"),
})

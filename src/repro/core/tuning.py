"""Systematic gain selection (§5.6 + the paper's future-work direction).

§5.6 gives three rules of thumb for choosing the SPSA coefficients:

* ``A`` — much less than (≤ 10% of) the expected iteration count; the
  paper's empirical study recommends A = 1;
* ``a`` — half of the configuration range;
* ``c`` — approximately the standard deviation of the measurement y(θ).

The paper's conclusion lists "intelligent approaches to determine gain
sequences systematically based on some user-level knowledge such as
cluster capacity and throughput estimate" as future work;
:func:`suggest_gains` implements that: it derives all three values from
the scaled configuration box and an (optionally measured) objective
noise estimate, so domain experts need not hand-tune them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .bounds import Box
from .gains import GainSchedule


def suggest_gains(
    scaled_box: Box,
    expected_iterations: int = 50,
    y_std: Optional[float] = None,
) -> GainSchedule:
    """Derive (A, a, c) from the configuration space per §5.6.

    Parameters
    ----------
    scaled_box:
        The scaled configuration box SPSA operates in.
    expected_iterations:
        Expected optimization horizon; A is set to min(1, 10% of it) —
        the paper's empirical study found A = 1 effective for horizons of
        tens of iterations.
    y_std:
        Standard deviation of the objective measurement.  When None, c
        defaults to 10% of the scaled range — roughly the measurement
        noise of a well-sized metric window in the simulator and the
        paper's c = 2 on a [1, 20] range.
    """
    if expected_iterations < 1:
        raise ValueError("expected_iterations must be >= 1")
    if y_std is not None and y_std <= 0:
        raise ValueError("y_std must be positive when given")
    span = float(np.max(scaled_box.ranges))
    a = span / 2.0
    c = y_std if y_std is not None else span * 0.10
    # c must stay a meaningful fraction of the space: too small and the
    # gradient estimate drowns in noise, too large and probes leave the
    # locally-linear region.
    c = float(np.clip(c, span * 0.02, span * 0.5))
    A = max(1.0, 0.1 * expected_iterations) if expected_iterations >= 20 else 1.0
    return GainSchedule(a=a, c=c, A=A)

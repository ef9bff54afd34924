"""SPSA gain sequences.

The gain sequences of §4.2.3 / §5.2:

.. math::

    a_k = \\frac{a}{(A + k + 1)^{\\alpha}}, \\qquad
    c_k = \\frac{c}{(k + 1)^{\\gamma}}

with the practically-effective exponents α = 0.602 and γ = 0.101 from
Spall (1998).  :meth:`GainSchedule.validate` checks the analytic
convergence conditions the paper cites (Condition B.1''):

* ``a_k → 0`` and ``c_k → 0``  (requires α > 0, γ > 0),
* ``Σ a_k = ∞``               (requires α ≤ 1),
* ``Σ (a_k / c_k)² < ∞``       (requires 2(α − γ) > 1).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Spall's practically-effective exponents (§4.2.3).
DEFAULT_ALPHA = 0.602
DEFAULT_GAMMA = 0.101


@dataclass(frozen=True)
class GainSchedule:
    """Parameterized SPSA gain sequences ``a_k`` and ``c_k``.

    Parameters
    ----------
    a:
        Step-size numerator; §5.6 recommends "half of the configuration
        range" (paper experiments use a = 10 on a [1, 20] scaled range).
    c:
        Perturbation-size numerator; §5.6 recommends "approximately the
        standard deviation of measurement y(θ)" (paper uses c = 2).
    A:
        Stability constant, "10% or less of the maximum number of
        iterations expected"; the paper's empirical study recommends
        A = 1.
    alpha, gamma:
        Decay exponents.
    """

    a: float
    c: float
    A: float = 1.0
    alpha: float = DEFAULT_ALPHA
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.A < 0:
            raise ValueError(f"A must be >= 0, got {self.A}")
        if self.alpha <= 0 or self.gamma <= 0:
            raise ValueError("alpha and gamma must be positive")

    def a_k(self, k: int) -> float:
        """Step size at iteration ``k`` (k >= 1, matching Algorithm 1)."""
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        return self.a / (k + 1.0 + self.A) ** self.alpha

    def c_k(self, k: int) -> float:
        """Perturbation size at iteration ``k`` (k >= 1)."""
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        return self.c / (k + 1.0) ** self.gamma

    def validate(self) -> None:
        """Raise ``ValueError`` unless the convergence conditions hold.

        These are the analytic requirements on the decay exponents for
        Condition B.1'' of Spall's Theorem 7.1 (paper §4.2.4):
        Σ a_k = ∞ needs α ≤ 1, and Σ (a_k/c_k)² < ∞ needs 2(α − γ) > 1.
        """
        if self.alpha > 1.0:
            raise ValueError(
                f"alpha={self.alpha} > 1 makes sum(a_k) finite, violating "
                "the divergence condition"
            )
        if 2.0 * (self.alpha - self.gamma) <= 1.0:
            raise ValueError(
                f"2*(alpha - gamma) = {2 * (self.alpha - self.gamma):.3f} <= 1: "
                "sum((a_k/c_k)^2) diverges, violating Condition B.1''"
            )


def paper_gains() -> GainSchedule:
    """The gains used in the paper's experiments: A=1, a=10, c=2 (§6.2.1)."""
    return GainSchedule(a=10.0, c=2.0, A=1.0)

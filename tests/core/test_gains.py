"""Unit tests for SPSA gain sequences."""

import pytest

from repro.core.gains import GainSchedule, paper_gains


class TestGainSchedule:
    def test_paper_gains_match_section_6_2_1(self):
        g = paper_gains()
        assert g.a == 10.0
        assert g.c == 2.0
        assert g.A == 1.0
        assert g.alpha == pytest.approx(0.602)
        assert g.gamma == pytest.approx(0.101)

    def test_formulas_match_algorithm_1(self):
        g = GainSchedule(a=10.0, c=2.0, A=1.0)
        # Algorithm 1: a_k = a / (k + 1 + A)^alpha, c_k = c / (k + 1)^gamma
        assert g.a_k(1) == pytest.approx(10.0 / 3.0**0.602)
        assert g.c_k(1) == pytest.approx(2.0 / 2.0**0.101)

    def test_sequences_decay(self):
        g = paper_gains()
        aks = [g.a_k(k) for k in range(1, 200)]
        cks = [g.c_k(k) for k in range(1, 200)]
        assert aks == sorted(aks, reverse=True)
        assert cks == sorted(cks, reverse=True)
        assert aks[-1] < aks[0] / 5

    def test_c_decays_slower_than_a(self):
        g = paper_gains()
        assert g.c_k(100) / g.c_k(1) > g.a_k(100) / g.a_k(1)

    def test_iteration_index_starts_at_one(self):
        g = paper_gains()
        with pytest.raises(ValueError):
            g.a_k(0)
        with pytest.raises(ValueError):
            g.c_k(0)

    def test_validate_accepts_spall_exponents(self):
        paper_gains().validate()

    def test_validate_rejects_alpha_above_one(self):
        g = GainSchedule(a=1.0, c=1.0, alpha=1.2, gamma=0.101)
        with pytest.raises(ValueError):
            g.validate()

    def test_validate_rejects_b1_violation(self):
        # 2(alpha - gamma) <= 1 makes sum((a_k/c_k)^2) diverge.
        g = GainSchedule(a=1.0, c=1.0, alpha=0.6, gamma=0.4)
        with pytest.raises(ValueError):
            g.validate()

    @pytest.mark.parametrize("kwargs", [
        {"a": 0.0, "c": 1.0},
        {"a": 1.0, "c": 0.0},
        {"a": 1.0, "c": 1.0, "A": -1.0},
        {"a": 1.0, "c": 1.0, "alpha": 0.0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GainSchedule(**kwargs)

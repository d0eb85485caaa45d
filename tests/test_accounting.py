import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpmst.accounting import (PrivacyBudget, eps_from_rho_delta,
                              gaussian_sigma_for_input_privatization,
                              per_round_epsilon, rho_from_eps_delta)

GRID_EPS = (0.1, 1.0, 5.0)
GRID_DELTA = (1e-2, 1e-6, 1e-10)


class TestRhoFromEpsDelta:
    def test_closed_form_at_delta_inv_e(self):
        # ln(1/delta) = 1, so rho = (sqrt(2) - 1)^2 = 3 - 2*sqrt(2)
        assert rho_from_eps_delta(1.0, math.exp(-1)) == pytest.approx(
            3 - 2 * math.sqrt(2), abs=1e-12)

    def test_value_at_delta_1e6(self):
        assert rho_from_eps_delta(1.0, 1e-6) == pytest.approx(
            0.017468904769123376, abs=1e-12)

    def test_vanishing_eps_limit(self):
        assert rho_from_eps_delta(1e-12, 1e-6) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            rho_from_eps_delta(0.0, 1e-6)
        with pytest.raises(ValueError):
            rho_from_eps_delta(1.0, 1.0)


class TestEpsFromRhoDelta:
    def test_round_trip_grid(self):
        for eps in GRID_EPS:
            for delta in GRID_DELTA:
                back = eps_from_rho_delta(rho_from_eps_delta(eps, delta), delta)
                assert abs(back - eps) <= 1e-9

    def test_zero_rho(self):
        assert eps_from_rho_delta(0.0, 1e-6) == 0.0

    def test_inverse_value(self):
        assert eps_from_rho_delta(3 - 2 * math.sqrt(2), math.exp(-1)) == pytest.approx(
            1.0, abs=1e-9)


class TestPerRoundEpsilon:
    def test_single_round(self):
        assert per_round_epsilon(0.5, 1) == 1.0

    def test_two_rounds(self):
        assert per_round_epsilon(0.5, 2) == pytest.approx(math.sqrt(0.5), abs=0)

    @given(st.floats(1e-6, 1e3), st.integers(1, 10**6))
    def test_budget_conservation(self, rho, rounds):
        # the algebraic identity rounds * eps'^2 / 2 == rho holds to within
        # one ulp; IEEE sqrt-then-square cannot be exact in general
        eps_prime = per_round_epsilon(rho, rounds)
        assert rounds * (eps_prime ** 2 / 2.0) == pytest.approx(rho, rel=4e-16)

    def test_domain(self):
        with pytest.raises(ValueError):
            per_round_epsilon(0.0, 1)
        with pytest.raises(ValueError):
            per_round_epsilon(1.0, 0)


class TestMonotonicity:
    @given(st.floats(1e-3, 50.0), st.floats(1e-3, 50.0),
           st.sampled_from(GRID_DELTA))
    def test_rho_increasing_in_eps(self, e1, e2, delta):
        if e1 == e2:
            return
        lo, hi = sorted((e1, e2))
        assert rho_from_eps_delta(lo, delta) < rho_from_eps_delta(hi, delta)

    @given(st.floats(1e-3, 50.0), st.integers(1, 1000), st.integers(1, 1000))
    def test_eps_prime_decreasing_in_rounds(self, rho, r1, r2):
        if r1 == r2:
            return
        lo, hi = sorted((r1, r2))
        assert per_round_epsilon(rho, hi) < per_round_epsilon(rho, lo)


class TestGaussianSigma:
    def test_examples(self):
        assert gaussian_sigma_for_input_privatization(0.5, 4, 1.0) == 2.0
        assert gaussian_sigma_for_input_privatization(0.5, 1, 1.0) == 1.0
        assert gaussian_sigma_for_input_privatization(1.0, 100, 0.1) == pytest.approx(
            1 / math.sqrt(2), abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            gaussian_sigma_for_input_privatization(0.0, 4, 1.0)


class TestPrivacyBudget:
    def test_from_eps_delta(self):
        b = PrivacyBudget.from_eps_delta(1.0, math.exp(-1), delta_inf=0.5)
        assert b.rho == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-12)
        assert b.delta_inf == 0.5

    def test_from_rho_derives_epsilon(self):
        b = PrivacyBudget.from_rho(3 - 2 * math.sqrt(2), math.exp(-1))
        assert b.epsilon == pytest.approx(1.0, abs=1e-9)

    def test_per_round_matches_free_function(self):
        b = PrivacyBudget.from_rho(2.0, 1e-6)
        assert b.per_round(7) == per_round_epsilon(2.0, 7)

    def test_bad_sensitivity(self):
        with pytest.raises(ValueError):
            PrivacyBudget.from_rho(1.0, 1e-6, delta_inf=0.0)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: rho_from_eps_delta(NAN, 1e-6),
    lambda: eps_from_rho_delta(NAN, 1e-6),
    lambda: per_round_epsilon(NAN, 3),
    lambda: gaussian_sigma_for_input_privatization(NAN, 4, 1.0),
    lambda: gaussian_sigma_for_input_privatization(0.5, 4, NAN),
    lambda: PrivacyBudget.from_eps_delta(NAN, 1e-6),
    lambda: PrivacyBudget.from_eps_delta(1.0, NAN),
    lambda: PrivacyBudget.from_eps_delta(1.0, 1e-6, delta_inf=NAN),
    lambda: PrivacyBudget.from_eps_delta(1.0, 1e-6, delta_inf=math.inf),
    lambda: PrivacyBudget.from_rho(NAN, 1e-6),
    lambda: PrivacyBudget.from_rho(1.0, 1e-6, delta_inf=NAN),
], ids=["rho-eps", "eps-rho", "per-round-rho", "sigma-rho", "sigma-delta-inf",
        "budget-eps", "budget-delta", "budget-eps-delta-inf",
        "budget-eps-delta-inf-infinite", "budget-rho", "budget-rho-delta-inf"])
def test_nan_budget_rejected(call):
    with pytest.raises(ValueError):
        call()

from collections import Counter

import numpy as np
import pytest

from dpmst.accounting import PrivacyBudget
from dpmst.exact import chi_square_gof, exact_selection_distribution
from dpmst.mechanisms import input_perturbation_mst
from dpmst.rng import RngStream
from dpmst.sampling import MatroidOracleError, private_max_weight_basis
from dpmst.selfcheck import graphic_matroid_oracle

from .test_graph import k4


class TestMatroidBasis:
    def test_uniform_matroid_no_noise_limit_returns_top_k(self):
        # rank-3 uniform matroid; a huge budget makes the noise negligible
        weights = [5.0, 1.0, 9.0, 3.0, 7.0]
        basis = private_max_weight_basis(
            weights, lambda ids: len(ids) <= 3, 1e9, 1e-6, 1.0, RngStream(50))
        assert sorted(basis) == [0, 2, 4]

    def test_graphic_matroid_matches_input_perturbation(self):
        g = k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        budget = PrivacyBudget.from_eps_delta(1.0, 1e-6, 1.0)
        for seed in range(5):
            tree = input_perturbation_mst(g, budget, RngStream(seed, (8,))).tree
            basis = private_max_weight_basis(
                -g.weights, graphic_matroid_oracle(g), 1.0, 1e-6, 1.0,
                RngStream(seed, (8,)))
            assert frozenset(b + 1 for b in basis) == tree.edge_ids

    def test_partition_matroid_matches_exact_distribution(self):
        # two blocks {0,1} and {2,3}, at most one element per block
        blocks = [0, 0, 1, 1]

        def is_independent(ids):
            seen = set()
            for j in ids:
                if blocks[j] in seen:
                    return False
                seen.add(blocks[j])
            return True

        def saturation_rule(sel):
            used = {blocks[j] for j in sel}
            return [j for j in range(4) if blocks[j] in used and j not in sel]

        weights = np.array([1.0, 2.0, 0.5, 1.5])
        eps, delta = 1.0, 1e-6
        # the greedy maximizer's selection distribution is the race over
        # exp(+eps' * w / 2) with block saturation removals
        from dpmst.accounting import per_round_epsilon, rho_from_eps_delta
        eps_prime = per_round_epsilon(rho_from_eps_delta(eps, delta), 2)
        s = np.exp(eps_prime * (weights - weights.max()) / 2.0)
        exact = exact_selection_distribution(s.tolist(), 2, saturation_rule)
        counts = Counter()
        for seed in range(40000):
            basis = private_max_weight_basis(weights, is_independent, eps, delta,
                                             1.0, RngStream(51, (seed,)))
            counts[tuple(basis)] += 1
        assert chi_square_gof(counts, exact, 0.001).passed

    def test_rejects_bad_oracle(self):
        with pytest.raises(MatroidOracleError):
            private_max_weight_basis([1.0], lambda ids: False, 1.0, 1e-6, 1.0,
                                     RngStream(0))

    def test_rank_zero_matroid_returns_empty_basis_without_a_draw(self):
        assert private_max_weight_basis([1.0, 2.0], lambda ids: len(ids) == 0,
                                        1.0, 1e-6, 1.0, NoDraws()) == []

    def test_rejects_oracle_that_refuses_its_own_basis(self):
        # rank 2: the rank probe and the greedy scan each ask one 2-set,
        # and this oracle refuses the third, the final check of the basis
        asked_pairs = Counter()

        def is_independent(ids):
            if len(ids) == 2:
                asked_pairs["n"] += 1
                return asked_pairs["n"] <= 2
            return len(ids) < 2

        with pytest.raises(MatroidOracleError, match="accepted incrementally"):
            private_max_weight_basis([1.0, 2.0, 3.0], is_independent, 1.0, 1e-6, 1.0,
                                     RngStream(52))
        assert asked_pairs["n"] == 3

    @pytest.mark.parametrize("weights,eps,delta_inf", [
        ([1.0, 2.0, 3.0], 1.0, 0.0),
        ([1.0, 2.0, 3.0], 1.0, -1.0),
        ([1.0, 2.0, 3.0], 1.0, np.inf),
        ([1.0, 2.0, 3.0], 1.0, np.nan),
        ([1.0, 2.0, 3.0], np.inf, 1.0),
        ([1.0, np.nan, 3.0], 1.0, 1.0),
        ([1.0, np.inf, 3.0], 1.0, 1.0),
        ([1.0, -np.inf, 3.0], 1.0, 1.0),
    ], ids=["delta_inf-zero", "delta_inf-negative", "delta_inf-inf", "delta_inf-nan",
            "eps-inf", "weight-nan", "weight-inf", "weight-minus-inf"])
    def test_rejects_bad_input_before_any_draw(self, weights, eps, delta_inf):
        # each used to return a basis, with the noise dropped, infinite or NaN
        with pytest.raises(ValueError):
            private_max_weight_basis(weights, lambda ids: len(ids) <= 2, eps, 1e-6,
                                     delta_inf, NoDraws())


class NoDraws:
    """Stream stand-in that fails the test on any draw."""

    def ln_exponential(self, size=None):
        raise AssertionError("drew noise on input that should be refused")

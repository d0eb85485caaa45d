from collections import Counter

import numpy as np
import pytest

from dpmst.accounting import PrivacyBudget
from dpmst.exact import chi_square_gof, cycle_rule, exact_selection_distribution
from dpmst.mechanisms import input_perturbation_mst
from dpmst.rng import RngStream
from dpmst.sampling import (MatroidOracleError, private_max_weight_basis,
                            race_scores, sample_without_replacement)
from dpmst.selfcheck import graphic_matroid_oracle

from .test_graph import k4


class FixedUniform:
    """Stream stand-in whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def uniform(self, size=None):
        return self.u if size is None else np.full(size, self.u)

    def ln_exponential(self, size=None):
        """``RngStream.ln_exponential`` of uniform draws all ``u``: ln(-ln u),
        so u = 1 gives -inf and u = 2**-53 the largest value."""
        with np.errstate(divide="ignore"):
            z = np.log(-np.log(self.uniform(size)))
        return float(z) if size is None else z


def empirical_distribution(weights, k, rule, trials, stream):
    counts = Counter()
    for _ in range(trials):
        counts[tuple(sample_without_replacement(weights, k, stream, rule))] += 1
    return counts


class TestSamplingTree:
    """The former sum-tree sampler's behaviours, drawn by the one sampler."""

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sample_without_replacement([1.0, 0.0], 1, RngStream(0))

    def test_two_leaf_frequency(self):
        stream = RngStream(21)
        hits = sum(sample_without_replacement([1.0, 1.0], 1, stream)[0]
                   for _ in range(10**5))
        assert abs(hits / 10**5 - 0.5) < 0.01

    def test_proportional_frequency(self):
        stream = RngStream(22)
        hits = sum(sample_without_replacement([1.0, 3.0], 1, stream)[0]
                   for _ in range(10**5))
        assert abs(hits / 10**5 - 0.75) < 0.01

    def test_four_leaf_chi_square(self):
        stream = RngStream(23)
        counts = Counter(sample_without_replacement([1.0, 2.0, 3.0, 4.0], 1, stream)[0]
                         for _ in range(10**5))
        exact = {i: (i + 1) / 10.0 for i in range(4)}
        assert chi_square_gof(counts, exact, 0.01).passed

    def test_never_samples_removed_leaf(self):
        # item 0 is removed after the first selection, so it may only come first
        stream = RngStream(24)
        for _ in range(10**4):
            out = sample_without_replacement([5.0, 1.0, 1.0], 3, stream,
                                             lambda sel: [0])
            assert 0 not in out[1:] and len(set(out)) == len(out)

    def test_rejects_nan_and_infinite_total(self):
        for weights in ([1.0, float("nan")], [1.0, float("inf")]):
            with pytest.raises(ValueError):
                sample_without_replacement(weights, 1, RngStream(0))
        # the race forms no total, so finite weights whose sum overflows are
        # valid: both items are selected, in either order
        out = sample_without_replacement([1e308, 1e308], 2, RngStream(0))
        assert sorted(out) == [0, 1]


class TestIterativeSelection:
    """The round-by-round selection's behaviours, drawn by the one-shot race."""

    def test_two_items_symmetric(self):
        stream = RngStream(30)
        hits = sum(sample_without_replacement([1.0, 1.0], 1, stream)[0]
                   for _ in range(20000))
        assert abs(hits / 20000 - 0.5) < 0.02

    def test_hand_value_one_third(self):
        stream = RngStream(31)
        n = 30000
        hits = sum(sample_without_replacement([1.0, 2.0, 3.0], 2, stream) == [2, 1]
                   for _ in range(n))
        assert abs(hits / n - 1 / 3) < 0.01

    def test_matches_exact_distribution(self):
        weights = [1.0, 2.0, 3.0]
        exact = exact_selection_distribution(weights, 2)
        counts = empirical_distribution(weights, 2, None, 50000, RngStream(32))
        assert chi_square_gof(counts, exact, 0.001).passed

    def test_returns_short_sequence_when_pool_empties(self):
        remove_rest = lambda sel: list(range(5))
        out = sample_without_replacement([1.0] * 5, 4, RngStream(33), remove_rest)
        assert len(out) == 1

    def test_subnormal_weights_keep_their_odds(self):
        # item 1 wins with probability 2/3; Exp(1) / w overflows to inf on
        # both items, so a race on unlogged scores ties and picks item 0
        weights = [5e-324, 1e-323]
        exact = exact_selection_distribution(weights, 1)
        counts = empirical_distribution(weights, 1, None, 20000, RngStream(37))
        assert chi_square_gof(counts, exact, 0.001).passed


class TestRaceSelection:
    def test_single_item_always_selected(self):
        assert sample_without_replacement([3.0], 1, RngStream(34)) == [0]

    def test_matches_iterative_and_exact(self):
        # the round-by-round (iterative) distribution is the exact oracle's
        weights = [1.0, 2.0, 3.0]
        exact = exact_selection_distribution(weights, 2)
        race = empirical_distribution(weights, 2, None, 50000, RngStream(35))
        assert chi_square_gof(race, exact, 0.001).passed

    def test_argmin_identity_with_additive_noise(self):
        # the race over s(j) = exp(-eps*w_j/2) orders the items as
        # w_j + (2/eps) * ln(Exp(1)) does on shared draws, not only the argmin
        eps = 0.7
        w = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        s = np.exp(-eps * w / 2.0)
        for seed in range(200):
            order = sample_without_replacement(s, len(w), RngStream(seed, (9,)))
            z = RngStream(seed, (9,)).ln_exponential(size=len(w))
            additive = w + (2.0 / eps) * z
            assert order == np.argsort(additive, kind="stable").tolist()

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_weight(self, bad):
        with pytest.raises(ValueError):
            race_scores([1.0, bad], RngStream(0))
        with pytest.raises(ValueError):
            sample_without_replacement([1.0, bad, 2.0], 3, RngStream(0))

    def test_scale_invariant_per_seed(self):
        weights = [0.5, 1.5, 2.5, 3.5]
        a = sample_without_replacement(weights, 3, RngStream(40, (1,)))
        b = sample_without_replacement([w * 100.0 for w in weights], 3,
                                       RngStream(40, (1,)))
        assert a == b


def remove_larger_index(sel):
    return list(range(max(sel) + 1, 5))


RULE_FAMILY = [
    ("no-op", [1.0, 2.0, 3.0, 1.5, 0.5], 3, None),
    ("remove-larger-index", [1.0, 2.0, 3.0, 1.5, 0.5], 3, remove_larger_index),
]


class TestImplementationExchangeability:
    """The one-shot race against the exact round-by-round (iterative)
    distribution, under removal rules."""

    @pytest.mark.parametrize("name,weights,k,rule", RULE_FAMILY,
                             ids=[r[0] for r in RULE_FAMILY])
    def test_race_equals_iterative(self, name, weights, k, rule):
        exact = exact_selection_distribution(weights, k, rule)
        race = empirical_distribution(weights, k, rule, 200000, RngStream(42))
        assert chi_square_gof(race, exact, 0.001).passed

    def test_cycle_rule_on_k4(self):
        g = k4([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        rule = cycle_rule(g)
        weights = np.exp(-g.weights / 2.0).tolist()
        exact = exact_selection_distribution(weights, 3, rule)
        race = empirical_distribution(weights, 3, rule, 200000, RngStream(44))
        assert chi_square_gof(race, exact, 0.001).passed


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

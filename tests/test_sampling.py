import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmst.accounting import PrivacyBudget
from dpmst.exact import chi_square_gof, cycle_rule, exact_selection_distribution
from dpmst.graph import build_graph
from dpmst.instances import erdos_renyi_instance
from dpmst.mechanisms import input_perturbation_mst
from dpmst.rng import RngStream
from dpmst.sampling import (MatroidOracleError, SamplingTree,
                            private_max_weight_basis,
                            race_sample_without_replacement, race_scores,
                            sample_without_replacement)

from .test_graph import k4


class TestSamplingTree:
    def test_build_sums(self):
        assert SamplingTree([1.0, 1.0, 1.0, 1.0]).total == 4.0
        assert SamplingTree([2.0]).total == 2.0
        t = SamplingTree([1.0, 2.0, 3.0])
        assert t.total == 6.0
        assert t._sums[2] == 3.0 and t._sums[3] == 3.0  # internal sums

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SamplingTree([1.0, 0.0])

    def test_two_leaf_frequency(self):
        stream = RngStream(21)
        tree = SamplingTree([1.0, 1.0])
        hits = sum(tree.sample(stream) for _ in range(10**5))
        assert abs(hits / 10**5 - 0.5) < 0.01

    def test_proportional_frequency(self):
        stream = RngStream(22)
        tree = SamplingTree([1.0, 3.0])
        hits = sum(tree.sample(stream) for _ in range(10**5))
        assert abs(hits / 10**5 - 0.75) < 0.01

    def test_four_leaf_chi_square(self):
        from dpmst.exact import ExactDistribution
        stream = RngStream(23)
        tree = SamplingTree([1.0, 2.0, 3.0, 4.0])
        counts = Counter(tree.sample(stream) for _ in range(10**5))
        exact = ExactDistribution({i: (i + 1) / 10.0 for i in range(4)})
        assert chi_square_gof(counts, exact, 0.01).passed

    def test_removal_updates_sums(self):
        tree = SamplingTree([1.0, 2.0, 3.0])
        tree.remove(2)
        assert tree.total == 3.0
        tree.remove(0)
        tree.remove(1)
        assert tree.total == 0.0

    def test_double_removal_rejected(self):
        tree = SamplingTree([1.0, 2.0])
        tree.remove(0)
        with pytest.raises(ValueError):
            tree.remove(0)

    def test_never_samples_removed_leaf(self):
        stream = RngStream(24)
        tree = SamplingTree([5.0, 1.0, 1.0])
        tree.remove(0)
        assert all(tree.sample(stream) != 0 for _ in range(10**4))

    @given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=40),
           st.lists(st.integers(0, 1000), max_size=30))
    @settings(max_examples=60)
    def test_sum_integrity_under_removals(self, weights, removal_picks):
        tree = SamplingTree(weights)
        live = set(range(len(weights)))
        for pick in removal_picks:
            if not live:
                break
            leaf = sorted(live)[pick % len(live)]
            tree.remove(leaf)
            live.discard(leaf)
        # every internal node equals the sum of its children
        for node in range(1, tree._size):
            kids = tree._sums[2 * node] + tree._sums[2 * node + 1]
            assert tree._sums[node] == pytest.approx(kids, rel=1e-9, abs=1e-12)
        expect = sum(weights[i] for i in live)
        assert tree.total == pytest.approx(expect, rel=1e-9, abs=1e-12)


    def test_rejects_nan_and_infinite_total(self):
        for weights in ([1.0, float("nan")], [1.0, float("inf")], [1e308, 1e308]):
            with pytest.raises(ValueError):
                SamplingTree(weights)

    @given(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=300))
    @settings(max_examples=80)
    def test_sums_match_loop_build(self, weights):
        assert SamplingTree(weights)._sums == _reference_sums(weights)

    def test_sums_match_loop_build_on_sampling_weights(self):
        g = erdos_renyi_instance(256, 1.0, 0, 100, RngStream(25))
        s = np.maximum(np.exp(-0.05 * (g.weights - g.weights.min())),
                       np.finfo(float).tiny)
        assert SamplingTree(s)._sums == _reference_sums(s.tolist())

    @given(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=40),
           st.lists(st.integers(0, 1000), max_size=39),
           st.sampled_from([1.0, 2.0 ** -53, 0.5]))
    @settings(max_examples=300)
    def test_sample_returns_a_live_leaf(self, weights, removal_picks, u):
        tree = SamplingTree(weights)
        live = list(range(len(weights)))
        for pick in removal_picks[:len(weights) - 1]:
            tree.remove(live.pop(pick % len(live)))
        assert tree.sample(FixedUniform(u)) in live


class FixedUniform:
    """Stream stand-in whose every uniform() draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def _reference_sums(weights):
    """The sum tree built node by node, from the last internal node to the root."""
    m = len(weights)
    size = 1 << (m - 1).bit_length()
    sums = [0.0] * (2 * size)
    sums[size:size + m] = [float(w) for w in weights]
    for i in range(size - 1, 0, -1):
        sums[i] = sums[2 * i] + sums[2 * i + 1]
    return sums


def empirical_distribution(sampler, weights, k, rule, trials, stream):
    counts = Counter()
    for _ in range(trials):
        counts[tuple(sampler(weights, k, stream, rule))] += 1
    return counts


class TestIterativeSelection:
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
        counts = empirical_distribution(sample_without_replacement, weights, 2,
                                        None, 50000, RngStream(32))
        assert chi_square_gof(counts, exact, 0.001).passed

    def test_returns_short_sequence_when_pool_empties(self):
        remove_rest = lambda sel: list(range(5))
        out = sample_without_replacement([1.0] * 5, 4, RngStream(33), remove_rest)
        assert len(out) == 1


class TestRaceSelection:
    def test_single_item_always_selected(self):
        assert race_sample_without_replacement([3.0], 1, RngStream(34)) == [0]

    def test_matches_iterative_and_exact(self):
        weights = [1.0, 2.0, 3.0]
        exact = exact_selection_distribution(weights, 2)
        race = empirical_distribution(race_sample_without_replacement, weights, 2,
                                      None, 50000, RngStream(35))
        iterative = empirical_distribution(sample_without_replacement, weights, 2,
                                           None, 50000, RngStream(36))
        assert chi_square_gof(race, exact, 0.001).passed
        assert chi_square_gof(iterative, exact, 0.001).passed

    def test_argmin_identity_with_additive_noise(self):
        # argmin of Exp(1)/s(j) with s(j) = exp(-eps*w_j/2) equals
        # argmin of w_j + (2/eps) * ln(Exp(1)) on shared draws
        eps = 0.7
        w = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        s = np.exp(-eps * w / 2.0)
        for seed in range(200):
            scores = race_scores(s, RngStream(seed, (9,)))
            z = RngStream(seed, (9,)).exponential(1.0, size=len(w))
            additive = w + (2.0 / eps) * np.log(z)
            assert int(np.argmin(scores)) == int(np.argmin(additive))

    def test_scale_invariant_per_seed(self):
        weights = [0.5, 1.5, 2.5, 3.5]
        a = race_sample_without_replacement(weights, 3, RngStream(40, (1,)))
        b = race_sample_without_replacement([w * 100.0 for w in weights], 3,
                                            RngStream(40, (1,)))
        assert a == b


def total_variation(counts_a, counts_b):
    n_a, n_b = sum(counts_a.values()), sum(counts_b.values())
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(abs(counts_a.get(k, 0) / n_a - counts_b.get(k, 0) / n_b)
                     for k in keys)


def marginalize(counts):
    """Collapse ordered-selection tallies to unordered selections.

    Two independent correct samplers differ in sequence-level empirical TV by
    ~0.01 in expectation at these support sizes and N, so the pairwise TV
    check runs on the set marginal; sequence-level fidelity is enforced by
    the chi-square tests against the exact oracle.
    """
    out = Counter()
    for seq, c in counts.items():
        out[frozenset(seq)] += c
    return out


def remove_larger_index(sel):
    return list(range(max(sel) + 1, 5))


RULE_FAMILY = [
    ("no-op", [1.0, 2.0, 3.0, 1.5, 0.5], 3, None),
    ("remove-larger-index", [1.0, 2.0, 3.0, 1.5, 0.5], 3, remove_larger_index),
]


class TestImplementationExchangeability:
    @pytest.mark.parametrize("name,weights,k,rule", RULE_FAMILY,
                             ids=[r[0] for r in RULE_FAMILY])
    def test_race_equals_iterative(self, name, weights, k, rule):
        trials = 200000
        exact = exact_selection_distribution(weights, k, rule)
        iterative = empirical_distribution(sample_without_replacement, weights,
                                           k, rule, trials, RngStream(41))
        race = empirical_distribution(race_sample_without_replacement, weights,
                                      k, rule, trials, RngStream(42))
        assert total_variation(marginalize(iterative), marginalize(race)) < 0.01
        assert chi_square_gof(iterative, exact, 0.001).passed
        assert chi_square_gof(race, exact, 0.001).passed

    def test_cycle_rule_on_k4(self):
        g = k4([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        rule = cycle_rule(g)
        weights = np.exp(-g.weights / 2.0).tolist()
        trials = 200000
        exact = exact_selection_distribution(weights, 3, rule)
        iterative = empirical_distribution(sample_without_replacement, weights,
                                           3, rule, trials, RngStream(43))
        race = empirical_distribution(race_sample_without_replacement, weights,
                                      3, rule, trials, RngStream(44))
        assert total_variation(marginalize(iterative), marginalize(race)) < 0.01
        assert chi_square_gof(iterative, exact, 0.001).passed
        assert chi_square_gof(race, exact, 0.001).passed


def graphic_matroid_oracle(g):
    def is_independent(ids):
        parent = list(range(g.n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in ids:
            u, v = g.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    return is_independent


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

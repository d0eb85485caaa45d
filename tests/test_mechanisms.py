import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from dpmst.accounting import PrivacyBudget
from dpmst.exact import chi_square_gof, exact_tree_distribution
from dpmst.graph import build_graph, is_spanning_tree, kruskal_mst, tree_weight
from dpmst.instances import erdos_renyi_instance
from dpmst.mechanisms import (MECHANISMS, UnknownMechanismError,
                              input_perturbation_mst, one_pass_mst, pamst,
                              perturb_weights, private_kruskal_mst,
                              run_mechanism, sealfon_mst)
from dpmst.rng import RngStream

from .test_graph import k4, triangle

EULER_GAMMA = 0.5772156649015329
HUGE = PrivacyBudget.from_rho(1e18, 1e-6, 1.0)


def budget_for_eps_prime(g, eps_prime, delta_inf=1.0):
    rounds = g.n - 1
    return PrivacyBudget.from_rho(rounds * eps_prime ** 2 / 2.0, 1e-6, delta_inf)


def tree_counts(mechanism, g, budget, trials, stream):
    counts = Counter()
    for _ in range(trials):
        counts[mechanism(g, budget, stream).tree.edge_ids] += 1
    return counts


def light_triangles_heavy_bridges():
    """Two weight-0 triangles joined by two weight-4 bridges: after two picks
    in a triangle its third edge closes a cycle but keeps the largest
    sampling weight, so private Kruskal draws and discards it often."""
    return build_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (3, 6)],
                       [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0, 4.0])


def _reference_pamst(g, budget, stream):
    """PAMST's former body: the cut rebuilt from all m endpoints every round."""
    eps_prime = budget.per_round(g.n - 1)
    coef = eps_prime / (2.0 * budget.delta_inf)
    w = g.weights
    in_tree = np.zeros(g.n + 1, dtype=bool)
    in_tree[1] = True
    chosen = []
    for _ in range(g.n - 1):
        crossing = np.nonzero(in_tree[g.u_arr] != in_tree[g.v_arr])[0]
        ws = w[crossing]
        cum = np.cumsum(np.exp(-coef * (ws - ws.min())))
        target = stream.uniform() * cum[-1]
        e = int(crossing[np.searchsorted(cum, target, side="left")])
        chosen.append(e + 1)
        u, v = g.edges[e]
        in_tree[v if in_tree[u] else u] = True
    return frozenset(chosen)


class TestPerturbWeights:
    def test_noise_vanishes_at_huge_eps_prime(self):
        g = triangle()
        noisy = perturb_weights(g, 1e9, 1.0, RngStream(1))
        assert np.max(np.abs(noisy - g.weights)) < 1e-6

    def test_noise_mean_is_minus_euler_gamma(self):
        # scale 2*delta_inf/eps' = 1, so E[noise] = E[ln Exp(1)] = -gamma
        g = build_graph(10**5 + 1, [(i, i + 1) for i in range(1, 10**5 + 1)],
                        np.zeros(10**5))
        samples = np.concatenate([
            perturb_weights(g, 2.0, 1.0, RngStream(2, (i,))) for i in range(10)])
        assert abs(samples.mean() + EULER_GAMMA) < 0.01

    def test_negated_rescaled_noise_is_gumbel(self):
        g = build_graph(10**5 + 1, [(i, i + 1) for i in range(1, 10**5 + 1)],
                        np.zeros(10**5))
        eps_prime, delta_inf = 0.8, 0.5
        noise = perturb_weights(g, eps_prime, delta_inf, RngStream(3))
        rescaled = -noise * eps_prime / (2.0 * delta_inf)
        res = stats.kstest(rescaled, lambda t: np.exp(-np.exp(-t)))
        assert res.pvalue > 0.01


class TestInputPerturbation:
    def test_symmetric_triangle_uniform(self):
        g = triangle([0.0, 0.0, 0.0])
        counts = tree_counts(input_perturbation_mst, g,
                             budget_for_eps_prime(g, 1.0), 30000, RngStream(4))
        exact = exact_tree_distribution(g, 1.0)
        assert chi_square_gof(counts, exact, 0.01).passed
        for p in exact.probs.values():
            assert p == pytest.approx(1 / 3, abs=1e-12)

    def test_k3_matches_exact_distribution(self):
        g = triangle()
        budget = budget_for_eps_prime(g, 1.0)
        counts = tree_counts(input_perturbation_mst, g, budget, 30000, RngStream(5))
        assert chi_square_gof(counts, exact_tree_distribution(g, 1.0), 0.001).passed

    def test_huge_budget_returns_true_mst(self):
        g = k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        best = kruskal_mst(g).edge_ids
        counts = tree_counts(input_perturbation_mst, g, HUGE, 2000, RngStream(6))
        assert counts[best] / 2000 >= 0.999

    def test_noisy_vector_is_diagnostic_not_release(self):
        g = triangle()
        r = input_perturbation_mst(g, budget_for_eps_prime(g, 1.0), RngStream(7))
        assert r.noisy_weights is not None and not r.noisy_weights_released


class TestPrivateKruskal:
    def test_k3_matches_exact_distribution(self):
        g = triangle()
        budget = budget_for_eps_prime(g, 1.0)
        counts = tree_counts(private_kruskal_mst, g, budget, 30000, RngStream(8))
        assert chi_square_gof(counts, exact_tree_distribution(g, 1.0), 0.001).passed

    def test_huge_budget_returns_true_mst(self):
        # eps' = 100 keeps the shifted sampling exponents representable while
        # making wrong selections ~exp(-25)-rare
        g = k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        best = kruskal_mst(g).edge_ids
        budget = budget_for_eps_prime(g, 100.0)
        counts = tree_counts(private_kruskal_mst, g, budget, 2000, RngStream(9))
        assert counts[best] / 2000 >= 0.999

    def test_survives_extreme_budget(self):
        # beyond-float budgets clamp underflowed sampling weights instead of crashing
        g = k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        r = private_kruskal_mst(g, HUGE, RngStream(28))
        assert is_spanning_tree(g, r.tree.edge_ids)

    @pytest.mark.parametrize("graph", [
        lambda: k4([1.0] * 6),
        lambda: k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6]),
        light_triangles_heavy_bridges,
    ], ids=["k4", "k4-asymmetric", "light-triangles-heavy-bridges"])
    def test_matches_exact_distribution(self, graph):
        g = graph()
        budget = budget_for_eps_prime(g, 1.0)
        stream = RngStream(29)
        counts, draws = Counter(), 0
        for _ in range(30000):
            r = private_kruskal_mst(g, budget, stream)
            counts[r.tree.edge_ids] += 1
            draws += r.ops["draws"]
        assert chi_square_gof(counts, exact_tree_distribution(g, 1.0), 0.001).passed
        if graph is light_triangles_heavy_bridges:
            assert draws > 1.2 * 30000 * (g.n - 1)  # cycle-closing draws happened

    def test_draw_counts(self):
        g = erdos_renyi_instance(64, 0.5, 0, 100, RngStream(30))
        for rho in (0.01, 1.0, 1e18):
            for seed in range(5):
                r = private_kruskal_mst(g, PrivacyBudget.from_rho(rho, 1e-6, 0.1),
                                        RngStream(31, (seed,)))
                checks = r.ops["edge_checks"]
                assert g.n - 1 <= r.ops["draws"] <= g.m
                assert checks.max() <= 1 and checks.sum() == r.ops["draws"]
                assert checks[[e - 1 for e in r.tree.edge_ids]].all()

    def test_per_edge_check_bound(self):
        g = erdos_renyi_instance(128, 0.5, 0, 100, RngStream(10))
        r = private_kruskal_mst(g, PrivacyBudget.from_rho(1.0, 1e-6, 0.1),
                                RngStream(11))
        bound = 2 * math.ceil(math.log2(g.n)) + 2
        assert int(r.ops["edge_checks"].max()) <= bound
        assert is_spanning_tree(g, r.tree.edge_ids)


class TestOnePass:
    def test_k3_matches_exact_distribution(self):
        g = triangle()
        budget = budget_for_eps_prime(g, 1.0)
        counts = tree_counts(one_pass_mst, g, budget, 30000, RngStream(12))
        assert chi_square_gof(counts, exact_tree_distribution(g, 1.0), 0.001).passed

    def test_shared_randomness_identity_with_input_perturbation(self):
        # ln(score) is an increasing affine map of the additive noisy weight,
        # so the two mechanisms agree draw for draw
        g = erdos_renyi_instance(12, 0.6, 0, 100, RngStream(13))
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 1.0)
        for seed in range(50):
            a = input_perturbation_mst(g, budget, RngStream(seed, (2,))).tree
            b = one_pass_mst(g, budget, RngStream(seed, (2,))).tree
            assert a == b

    def test_tree_instance_returns_the_only_tree(self):
        g = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)], [1.0, 2.0, 3.0, 4.0])
        budget = budget_for_eps_prime(g, 0.5)
        for seed in range(20):
            assert one_pass_mst(g, budget, RngStream(seed)).tree.edge_ids == \
                frozenset({1, 2, 3, 4})


class TestSealfon:
    def test_single_edge_graph(self):
        g = build_graph(2, [(1, 2)], [7.0])
        for mode in ("laplace_pure", "gaussian_zcdp"):
            r = sealfon_mst(g, PrivacyBudget.from_eps_delta(1.0, 1e-6), RngStream(14),
                            mode=mode)
            assert r.tree.edge_ids == frozenset({1})
            assert r.noisy_weights_released

    def test_laplace_noise_scales_linearly_in_edge_count(self):
        budget = PrivacyBudget.from_eps_delta(1.0, 1e-6, 1.0)
        stds = {}
        for m, trials in ((10, 2000), (100, 200)):
            g = build_graph(m + 1, [(i, i + 1) for i in range(1, m + 1)],
                            np.zeros(m))
            noise = np.concatenate([
                sealfon_mst(g, budget, RngStream(15, (m, t)),
                            mode="laplace_pure").noisy_weights
                for t in range(trials)])
            stds[m] = noise.std()
        assert stds[100] / stds[10] == pytest.approx(10.0, rel=0.05)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sealfon_mst(triangle(), HUGE, RngStream(0), mode="bogus")


class TestPamst:
    def test_path_graph_returns_the_path(self):
        g = build_graph(4, [(1, 2), (2, 3), (3, 4)], [5.0, 7.0, 11.0])
        for seed in range(20):
            r = pamst(g, PrivacyBudget.from_rho(0.01, 1e-6, 1.0), RngStream(seed))
            assert r.tree.edge_ids == frozenset({1, 2, 3})

    def test_huge_budget_returns_true_mst(self):
        g = k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        best = kruskal_mst(g).edge_ids
        counts = tree_counts(pamst, g, HUGE, 2000, RngStream(16))
        assert counts[best] / 2000 >= 0.999

    def test_output_is_spanning_tree(self):
        g = erdos_renyi_instance(30, 0.4, 0, 100, RngStream(17))
        r = pamst(g, PrivacyBudget.from_rho(1.0, 1e-6, 0.1), RngStream(18))
        assert is_spanning_tree(g, r.tree.edge_ids)

    @pytest.mark.parametrize("n,p", [(12, 1.0), (40, 0.3), (64, 1.0), (200, 0.1)])
    def test_same_trees_as_full_cut_rebuild(self, n, p):
        g = erdos_renyi_instance(n, p, 0, 100, RngStream(32, (n,)))
        for budget in (PrivacyBudget.from_rho(0.01, 1e-6, 0.1),
                       PrivacyBudget.from_rho(1.0, 1e-6, 0.1), HUGE):
            for seed in range(4):
                got = pamst(g, budget, RngStream(33, (seed,))).tree.edge_ids
                assert got == _reference_pamst(g, budget, RngStream(33, (seed,)))

    def test_error_indistinguishable_from_input_perturbation_on_dense_graph(self):
        from dpmst.harness import run_trials
        g = erdos_renyi_instance(256, 1.0, 0, 100, RngStream(5, (0,)))
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
        cis = {mech: run_trials(g, mech, budget, 50, 500).ci95_error()
               for mech in ("perturb", "pamst")}
        a, b = cis["perturb"], cis["pamst"]
        assert a[0] <= b[1] and b[0] <= a[1]


class TestCrossMechanismInvariants:
    def test_noisy_tree_never_beats_noisy_true_mst(self):
        g = erdos_renyi_instance(20, 0.5, 0, 100, RngStream(19))
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
        true_ids = [e - 1 for e in kruskal_mst(g).edge_ids]
        for seed in range(50):
            r = input_perturbation_mst(g, budget, RngStream(seed, (3,)))
            got = sum(r.noisy_weights[e - 1] for e in r.tree.edge_ids)
            ref = r.noisy_weights[true_ids].sum()
            assert got <= ref + 1e-9

    def test_error_decreases_as_rho_grows(self):
        g = erdos_renyi_instance(32, 1.0, 0, 100, RngStream(20))
        means, halves = [], []
        for i, rho in enumerate((0.25, 1.0, 4.0)):
            budget = PrivacyBudget.from_rho(rho, 1e-6, 0.1)
            true_w = tree_weight(g, kruskal_mst(g))
            errs = []
            for t in range(60):
                r = input_perturbation_mst(g, budget, RngStream(21, (i, t)))
                errs.append(tree_weight(g, r.tree) - true_w)
            errs = np.asarray(errs)
            means.append(errs.mean())
            halves.append(1.96 * errs.std(ddof=1) / math.sqrt(len(errs)))
        # strictly decreasing with separated 95% confidence intervals
        assert means[0] - halves[0] > means[1] + halves[1]
        assert means[1] - halves[1] > means[2] + halves[2]

    def test_registry_and_unknown_id(self):
        assert set(MECHANISMS) == {"perturb", "kruskal", "onepass", "pamst",
                                   "sealfon-laplace", "sealfon-gauss"}
        with pytest.raises(UnknownMechanismError):
            run_mechanism("bogus", triangle(), HUGE, RngStream(0))

    def test_run_mechanism_dispatch(self):
        g = triangle()
        r = run_mechanism("onepass", g, budget_for_eps_prime(g, 1.0), RngStream(22))
        assert is_spanning_tree(g, r.tree.edge_ids)

    def test_tree_is_mst_of_returned_noisy_weights(self):
        g = erdos_renyi_instance(15, 0.5, 0, 100, RngStream(23))
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
        for mech in ("perturb", "onepass", "sealfon-laplace", "sealfon-gauss"):
            for seed in range(5):
                r = run_mechanism(mech, g, budget, RngStream(24, (seed,)))
                assert r.tree == kruskal_mst(g, r.noisy_weights)

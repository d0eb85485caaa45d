import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from dpmst.accounting import PrivacyBudget
from dpmst.exact import (chi_square_gof, exact_tree_distribution,
                         prim_tree_distribution)
from dpmst.graph import (DisjointSets, build_graph, is_spanning_tree,
                         kruskal_mst, tree_weight)
from dpmst.harness import _EXTRA_MECHANISMS
from dpmst.instances import erdos_renyi_instance
from dpmst.mechanisms import (MECHANISMS, UnknownMechanismError,
                              input_perturbation_mst, kruskal_sampling_weights,
                              one_pass_mst, pamst, perturb_weights,
                              private_kruskal_mst, run_mechanism, sealfon_mst)
from dpmst.rng import RngStream
from dpmst.sampling import SamplingTree

from .test_graph import k4, triangle
from .test_sampling import FixedUniform

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


def parallel_edges():
    """K3 with a second (1, 2) edge: five spanning trees, and vertex 2's
    first-round cut mass sums two edges while vertex 3 competes with it."""
    return build_graph(3, [(1, 2), (2, 3), (1, 3), (1, 2)], [1.0, 2.0, 3.0, 1.5])


def _reference_pamst(g, budget, stream):
    """PAMST's first body: the cut rebuilt from all m endpoints every round,
    one uniform per round over the whole cut in edge-id order."""
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
        u, v = g.u_arr[e], g.v_arr[e]
        in_tree[v if in_tree[u] else u] = True
    return frozenset(chosen)


def _reference_private_kruskal(g, budget, stream):
    """private_kruskal_mst's former body: a sum tree built per call, then
    sample, remove and merge per draw. Returns (tree, draws, edge_checks)."""
    tree = SamplingTree(kruskal_sampling_weights(g, budget))
    ds = DisjointSets(g.n)
    drawn, chosen = [], []
    while len(chosen) < g.n - 1:
        e = tree.sample(stream)
        tree.remove(e)
        drawn.append(e)
        if ds.merge(int(g.u_arr[e]), int(g.v_arr[e])):
            chosen.append(e + 1)
    checks = np.zeros(g.m, dtype=np.int64)
    checks[drawn] = 1
    return frozenset(chosen), len(drawn), checks


def assert_same_as_reference(g, budget, seed):
    r = private_kruskal_mst(g, budget, RngStream(seed))
    tree, draws, checks = _reference_private_kruskal(g, budget, RngStream(seed))
    assert (r.tree.edge_ids, r.ops["draws"]) == (tree, draws)
    assert np.array_equal(r.ops["edge_checks"], checks)


def multigraph():
    """ER(24, 0.4) with every edge doubled at a different weight and a
    third copy of every fifth edge."""
    g = erdos_renyi_instance(24, 0.4, 0, 100, RngStream(12))
    extra = np.arange(0, g.m, 5)
    u = np.concatenate([g.u_arr, g.v_arr, g.u_arr[extra]])
    v = np.concatenate([g.v_arr, g.u_arr, g.v_arr[extra]])
    w = np.concatenate([g.weights, g.weights[::-1], g.weights[extra] + 0.5])
    return build_graph(g.n, np.column_stack([u, v]), w)


def _reference_one_pass(g, budget, stream):
    """one_pass_mst's former body: log-form race scores, then Kruskal."""
    eps_prime = budget.per_round(g.n - 1)
    w = g.weights
    z = stream.exponential(1.0, size=g.m)
    with np.errstate(divide="ignore"):
        scores = np.log(z) + eps_prime * (w - w.min()) / (2.0 * budget.delta_inf)
    return kruskal_mst(g, scores).edge_ids


def _reference_wrong_exponent(g, budget, stream):
    """The mutant's former body: the race with exponent eps' instead of eps'/2."""
    eps_prime = budget.per_round(g.n - 1)
    w = g.weights
    z = stream.exponential(1.0, size=g.m)
    with np.errstate(divide="ignore"):
        scores = np.log(z) + eps_prime * (w - w.min()) / budget.delta_inf
    return kruskal_mst(g, scores).edge_ids


class TestPerturbWeights:
    @pytest.mark.parametrize("eps_prime,delta_inf", [
        (0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
        (1.0, 0.0), (1.0, np.nan), (1.0, np.inf)])
    def test_rejects_bad_eps_prime_or_delta_inf(self, eps_prime, delta_inf):
        with pytest.raises(ValueError):
            perturb_weights(triangle(), eps_prime, delta_inf, RngStream(0))
        with pytest.raises(ValueError):
            perturb_weights(triangle(), eps_prime, delta_inf, RngStream(0), rows=5)

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("graph", [
        lambda: k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6]), parallel_edges,
    ], ids=["k4-asymmetric", "parallel-edges"])
    def test_block_rows_are_successive_calls(self, graph, rows):
        g = graph()
        stream = RngStream(8)
        calls = np.stack([perturb_weights(g, 0.7, 0.5, stream) for _ in range(rows)])
        block = perturb_weights(g, 0.7, 0.5, RngStream(8), rows=rows)
        assert block.shape == (rows, g.m)
        assert np.array_equal(block, calls)

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

    @pytest.mark.parametrize("graph", [
        lambda: build_graph(8, [(u, v) for u in range(1, 9) for v in range(u + 1, 9)],
                            RngStream(13).uniform(28) * 10.0),
        lambda: erdos_renyi_instance(64, 0.3, 0, 100, RngStream(14)),
        multigraph,
    ], ids=["k8", "er-64", "multigraph"])
    def test_same_as_former_body(self, graph):
        g = graph()
        for rho in (0.01, 1.0, 1e18):
            budget = PrivacyBudget.from_rho(rho, 1e-6, 0.1)
            for seed in range(8):
                assert_same_as_reference(g, budget, seed)


class TestPrivateKruskalStartTree:
    """The sum tree is built once per graph and budget and copied per call."""

    def test_alternating_budgets_on_one_graph(self):
        g = erdos_renyi_instance(40, 0.5, 0, 100, RngStream(15))
        budgets = [PrivacyBudget.from_rho(rho, 1e-6, 0.1) for rho in (0.05, 5.0)]
        for seed in range(6):
            assert_same_as_reference(g, budgets[seed % 2], seed)

    def test_same_eps_prime_other_delta_inf_rebuilds(self):
        g = erdos_renyi_instance(40, 0.5, 0, 100, RngStream(15))
        for seed, delta_inf in enumerate((0.1, 1.0, 0.1)):
            assert_same_as_reference(g, budget_for_eps_prime(g, 1.0, delta_inf), seed)

    def test_two_graphs_with_equal_weights(self):
        # two graph objects with equal edges and weights, and a third with
        # the same edges and one weight changed: each call sees its own graph
        a = erdos_renyi_instance(40, 0.5, 0, 100, RngStream(16))
        ends = np.column_stack([a.u_arr, a.v_arr])
        b = build_graph(a.n, ends, a.weights)
        w = a.weights.copy()
        w[int(np.argmin(w))] += 50.0
        c = build_graph(a.n, ends, w)
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
        for seed in range(3):
            for g in (a, b, c):
                assert_same_as_reference(g, budget, seed)
            assert (private_kruskal_mst(a, budget, RngStream(seed)).tree
                    == private_kruskal_mst(b, budget, RngStream(seed)).tree)

    def test_same_seed_twice_same_tree(self):
        g = erdos_renyi_instance(40, 0.5, 0, 100, RngStream(17))
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
        first = private_kruskal_mst(g, budget, RngStream(5))
        private_kruskal_mst(g, budget, RngStream(6))
        again = private_kruskal_mst(g, budget, RngStream(5))
        assert (first.tree, first.ops["draws"]) == (again.tree, again.ops["draws"])

    def test_graph_is_collected(self):
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
        g = erdos_renyi_instance(40, 0.5, 0, 100, RngStream(18))
        private_kruskal_mst(g, budget, RngStream(0))
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None
        # a new graph often takes a freed one's address; it gets its own tree
        for seed in range(19, 29):
            assert_same_as_reference(k4(RngStream(seed).uniform(6) * 10.0), budget, seed)

    def test_rejects_what_the_former_body_rejects(self):
        # n = 1 has no edges to sample from; nothing is cached, so every
        # call raises the former body's error
        g = build_graph(1, [], [])
        with pytest.raises(ValueError) as former:
            _reference_private_kruskal(g, HUGE, RngStream(0))
        for _ in range(2):
            with pytest.raises(ValueError) as now:
                private_kruskal_mst(g, HUGE, RngStream(0))
            assert str(now.value) == str(former.value)


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

    def test_is_input_perturbation(self):
        assert one_pass_mst is input_perturbation_mst
        assert MECHANISMS["onepass"] is input_perturbation_mst

    @pytest.mark.parametrize("graph", [
        triangle,
        lambda: k4([1.0] * 6),
        lambda: k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6]),
        lambda: erdos_renyi_instance(40, 0.3, 0, 100, RngStream(34)),
    ], ids=["k3", "k4", "k4-asymmetric", "er-40"])
    def test_same_trees_as_former_bodies(self, graph):
        # onepass and the mutant are input perturbation at eps' and 2 eps';
        # their former bodies ranked log-form race scores instead
        g = graph()
        mutant = _EXTRA_MECHANISMS["mutant"]
        for budget in (PrivacyBudget.from_rho(0.01, 1e-6, 1.0),
                       PrivacyBudget.from_rho(1.0, 1e-6, 0.1), HUGE):
            for seed in range(10):
                got = run_mechanism("onepass", g, budget, RngStream(35, (seed,)))
                assert got.tree.edge_ids == _reference_one_pass(
                    g, budget, RngStream(35, (seed,)))
                got = mutant(g, budget, RngStream(36, (seed,)))
                assert got.tree.edge_ids == _reference_wrong_exponent(
                    g, budget, RngStream(36, (seed,)))

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

    @pytest.mark.parametrize("graph", [
        triangle,
        lambda: k4([1.0] * 6),
        lambda: k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6]),
        light_triangles_heavy_bridges,
        parallel_edges,
    ], ids=["k3", "k4", "k4-asymmetric", "light-triangles-heavy-bridges",
            "parallel-edges"])
    def test_matches_prim_cut_oracle(self, graph):
        # the vertex-then-edge draw and the whole-cut draw it replaced
        g = graph()
        budget = budget_for_eps_prime(g, 1.0)
        exact = prim_tree_distribution(g, 1.0)
        counts = tree_counts(pamst, g, budget, 30000, RngStream(37))
        assert chi_square_gof(counts, exact, 0.001).passed
        stream = RngStream(38)
        counts = Counter(_reference_pamst(g, budget, stream) for _ in range(30000))
        assert chi_square_gof(counts, exact, 0.001).passed

    def test_underflowing_cut(self):
        # at eps' = 2 the second cut's terms are exp(-1000) and exp(-1001):
        # both underflow unless shifted by the cut's own minimum weight
        g = build_graph(3, [(1, 2), (2, 3), (2, 3)], [0.0, 1000.0, 1001.0])
        budget = budget_for_eps_prime(g, 2.0)
        exact = prim_tree_distribution(g, 2.0)
        assert exact[frozenset({1, 2})] == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-12)
        counts = tree_counts(pamst, g, budget, 20000, RngStream(39))
        assert chi_square_gof(counts, exact, 0.001).passed

    def test_huge_budget_returns_true_mst_on_dense_graph(self):
        g = erdos_renyi_instance(64, 1.0, 0, 100, RngStream(40))
        best = kruskal_mst(g)
        for seed in range(5):
            assert pamst(g, HUGE, RngStream(41, (seed,))).tree == best

    @pytest.mark.parametrize("u", [1.0, 2.0 ** -53])
    def test_extreme_uniforms_give_a_spanning_tree(self, u):
        # a draw at either end of (0, 1] must still land on a positive-mass
        # vertex and on an edge that reaches the tree
        g = erdos_renyi_instance(30, 0.4, 0, 100, RngStream(44))
        for rho in (0.01, 1.0, 1e18):
            r = pamst(g, PrivacyBudget.from_rho(rho, 1e-6, 0.1), FixedUniform(u))
            assert is_spanning_tree(g, r.tree.edge_ids)

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_op_counts(self, p):
        # each vertex's incidence slots are read once, not the m edges per round
        g = erdos_renyi_instance(64, p, 0, 100, RngStream(42, (int(10 * p),)))
        for rho in (0.01, 1.0, 1e18):
            r = pamst(g, PrivacyBudget.from_rho(rho, 1e-6, 0.1), RngStream(43))
            assert r.ops["edge_scans"] <= 4 * g.m
            assert r.ops["draws"] == 2 * (g.n - 1)

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

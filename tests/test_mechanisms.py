import math
from collections import Counter
from functools import partial

import numpy as np
import pytest
from scipy import stats

from dpmst.accounting import PrivacyBudget, gaussian_sigma_for_input_privatization
from dpmst.exact import (brute_force_mst, chi_square_gof, exact_tree_distribution,
                         prim_tree_distribution)
from dpmst import graph as graph_module
from dpmst.graph import (SpanningTree, _kruskal_picks, build_graph, is_spanning_tree, kruskal_mst,
                         tree_weight)
from dpmst.instances import erdos_renyi_instance
from dpmst import mechanisms
from dpmst.mechanisms import (LAZY_GUMBEL, LAZY_MIN_DENSITY, LAZY_MIN_EDGES, MECHANISMS,
                              MechanismResult, NoisyWeights, UnknownMechanismError,
                              input_perturbation_mst, _dijkstra_tree, _extend,
                              _first_window, _kruskal_tree, _noise_scale, _perturbed_tree,
                              _prim_race, _prim_tree, _reveal, _window, pamst,
                              perturb_weights, run_mechanism, sealfon_mst)
from dpmst.rng import RngStream

from .test_graph import k4, triangle
from .test_sampling import FixedUniform

EULER_GAMMA = 0.5772156649015329
HUGE = PrivacyBudget.from_rho(1e18, 1e-6, 1.0)
private_kruskal = partial(run_mechanism, "kruskal")


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
    """onepass's former body: log-form race scores, then Kruskal."""
    eps_prime = budget.per_round(g.n - 1)
    w = g.weights
    z = stream.exponential(1.0, size=g.m)
    with np.errstate(divide="ignore"):
        scores = np.log(z) + eps_prime * (w - w.min()) / (2.0 * budget.delta_inf)
    return kruskal_mst(g, scores).edge_ids


def wrong_exponent(g, budget, stream):
    """Input perturbation at 2 eps': the noise is half what eps' needs."""
    noisy = perturb_weights(g, 2.0 * budget.per_round(g.n - 1), budget.delta_inf, stream)
    return MechanismResult(tree=kruskal_mst(g, noisy), noisy_weights=noisy)


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

    @pytest.mark.parametrize("rows", [None, 3])
    def test_same_bits_as_the_out_of_place_expression(self, rows):
        g = erdos_renyi_instance(40, 0.5, 0.0, 100.0, RngStream(30))
        eps_prime, delta_inf = 0.7, 0.5
        u = RngStream(31)._gen.random(g.m if rows is None else (rows, g.m))
        with np.errstate(divide="ignore"):
            expect = g.weights + delta_inf * (2.0 / eps_prime) * np.log(-np.log(1 - u))
        got = perturb_weights(g, eps_prime, delta_inf, RngStream(31), rows=rows)
        assert got.tobytes() == expect.tobytes()

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
        assert r.noise is not None and not r.noisy_weights_released


class TestPrivateKruskal:
    def test_k3_matches_exact_distribution(self):
        g = triangle()
        budget = budget_for_eps_prime(g, 1.0)
        counts = tree_counts(private_kruskal, g, budget, 30000, RngStream(8))
        assert chi_square_gof(counts, exact_tree_distribution(g, 1.0), 0.001).passed

    def test_huge_budget_returns_true_mst(self):
        # eps' = 100 makes wrong selections ~exp(-25)-rare
        g = k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        best = kruskal_mst(g).edge_ids
        budget = budget_for_eps_prime(g, 100.0)
        counts = tree_counts(private_kruskal, g, budget, 2000, RngStream(9))
        assert counts[best] / 2000 >= 0.999

    def test_survives_extreme_budget(self):
        # at a beyond-float budget the noise vanishes and the exact MST comes out
        g = k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        r = private_kruskal(g, HUGE, RngStream(28))
        assert r.tree == kruskal_mst(g)

    def test_single_vertex_rejected(self):
        # n - 1 = 0 rounds have no per-round budget to draw at
        g = build_graph(1, [], [])
        for _ in range(2):
            with pytest.raises(ValueError, match="rounds must be a positive integer"):
                private_kruskal(g, HUGE, RngStream(0))

    def test_k256_at_huge_budgets(self):
        # the graph and delta_inf of the er256-select benchmark workload; a
        # sampler shifted by the global minimum weight drew uniformly among
        # the heavier edges here: 0 of these 5 trees at rho = 1e18 were the MST,
        # and the mean error at rho = 1e6 was 125
        g = erdos_renyi_instance(256, 1.0, 0.0, 100.0, RngStream(1, (1,)))
        huge = PrivacyBudget.from_rho(1e18, 1e-6, 0.1)
        for seed in range(5):
            assert private_kruskal(g, huge, RngStream(37, (seed,))).tree == g.mst
        budget = PrivacyBudget.from_rho(1e6, 1e-6, 0.1)
        best = tree_weight(g, g.mst)
        errors = [tree_weight(g, private_kruskal(g, budget, RngStream(38, (seed,))).tree)
                  - best for seed in range(5)]
        assert np.mean(errors) < 1.0

    def test_same_tree_as_perturb_on_the_same_stream(self):
        # kruskal is the input perturbation body, which also counts its scan
        assert MECHANISMS["kruskal"] is input_perturbation_mst
        g = erdos_renyi_instance(12, 0.6, 0, 100, RngStream(13))
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 1.0)
        for seed in range(50):
            a = input_perturbation_mst(g, budget, RngStream(seed, (3,))).tree
            b = private_kruskal(g, budget, RngStream(seed, (3,))).tree
            assert a == b

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
            r = private_kruskal(g, budget, stream)
            counts[r.tree.edge_ids] += 1
            draws += r.ops["draws"]
        assert chi_square_gof(counts, exact_tree_distribution(g, 1.0), 0.001).passed
        if graph is light_triangles_heavy_bridges:
            assert draws > 1.2 * 30000 * (g.n - 1)  # cycle-closing draws happened

    def test_draw_counts(self):
        g = erdos_renyi_instance(64, 0.5, 0, 100, RngStream(30))
        for rho in (0.01, 1.0, 1e18):
            for seed in range(5):
                r = private_kruskal(g, PrivacyBudget.from_rho(rho, 1e-6, 0.1),
                                        RngStream(31, (seed,)))
                checks = r.ops["edge_checks"]
                assert g.n - 1 <= r.ops["draws"] <= g.m
                assert checks.max() <= 1 and checks.sum() == r.ops["draws"]
                assert checks[[e - 1 for e in r.tree.edge_ids]].all()

    def test_per_edge_check_bound(self):
        g = erdos_renyi_instance(128, 0.5, 0, 100, RngStream(10))
        r = private_kruskal(g, PrivacyBudget.from_rho(1.0, 1e-6, 0.1),
                                RngStream(11))
        bound = 2 * math.ceil(math.log2(g.n)) + 2
        assert int(r.ops["edge_checks"].max()) <= bound
        assert is_spanning_tree(g, r.tree.edge_ids)

    @pytest.mark.parametrize("graph, stream", [
        (lambda: erdos_renyi_instance(40, 0.3, 0, 100, RngStream(32)),
         lambda seed: RngStream(33, (seed,))),
        (lambda: erdos_renyi_instance(40, 0.3, 0, 100, RngStream(32)),
         lambda seed: FixedUniform(1.0)),
        (lambda: above_size_rule(), lambda seed: RngStream(33, (seed,))),
    ], ids=["random", "all-minus-inf", "above-size-rule"])
    def test_edge_checks_are_the_scan_prefix(self, graph, stream):
        # the edges Kruskal's scan reads: the (w~, id) order up to the
        # released tree's last edge; all -inf noise ranks by edge id alone.
        # Above the size rule the unrevealed edges share the clamp, above
        # every revealed weight, so the scan reads revealed edges only
        g = graph()
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
        for seed in range(5):
            r = private_kruskal(g, budget, stream(seed))
            order = np.argsort(expand(r.noise), kind="stable")
            ranked, k = r.ops["edge_checks"][order], r.ops["draws"]
            assert ranked[:k].all() and not ranked[k:].any()
            assert order[k - 1] + 1 in r.tree.edge_ids
            if r.noise.ids is not None:  # the scan read revealed edges only
                assert np.isin(np.flatnonzero(r.ops["edge_checks"]), r.noise.ids).all()


class TestOnePass:
    def test_k3_matches_exact_distribution(self):
        g = triangle()
        budget = budget_for_eps_prime(g, 1.0)
        counts = tree_counts(partial(run_mechanism, "onepass"), g, budget, 30000,
                             RngStream(12))
        assert chi_square_gof(counts, exact_tree_distribution(g, 1.0), 0.001).passed

    def test_shared_randomness_identity_with_input_perturbation(self):
        # ln(score) is an increasing affine map of the additive noisy weight,
        # so the two mechanisms agree draw for draw
        g = erdos_renyi_instance(12, 0.6, 0, 100, RngStream(13))
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 1.0)
        for seed in range(50):
            a = input_perturbation_mst(g, budget, RngStream(seed, (2,))).tree
            b = run_mechanism("onepass", g, budget, RngStream(seed, (2,))).tree
            assert a == b

    def test_is_input_perturbation(self):
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
        for budget in (PrivacyBudget.from_rho(0.01, 1e-6, 1.0),
                       PrivacyBudget.from_rho(1.0, 1e-6, 0.1), HUGE):
            for seed in range(10):
                got = run_mechanism("onepass", g, budget, RngStream(35, (seed,)))
                assert got.tree.edge_ids == _reference_one_pass(
                    g, budget, RngStream(35, (seed,)))
                got = wrong_exponent(g, budget, RngStream(36, (seed,)))
                assert got.tree.edge_ids == _reference_wrong_exponent(
                    g, budget, RngStream(36, (seed,)))

    def test_tree_instance_returns_the_only_tree(self):
        g = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)], [1.0, 2.0, 3.0, 4.0])
        budget = budget_for_eps_prime(g, 0.5)
        for seed in range(20):
            got = run_mechanism("onepass", g, budget, RngStream(seed))
            assert got.tree.edge_ids == frozenset({1, 2, 3, 4})


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
                            mode="laplace_pure").noise.values
                for t in range(trials)])
            stds[m] = noise.std()
        assert stds[100] / stds[10] == pytest.approx(10.0, rel=0.05)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sealfon_mst(triangle(), HUGE, RngStream(0), mode="bogus")

    @pytest.mark.parametrize("mode", ["laplace_pure", "gaussian_zcdp"])
    def test_noisy_vector_is_weights_plus_one_draw(self, mode):
        g = erdos_renyi_instance(40, 0.5, 0.0, 100.0, RngStream(32))
        budget = PrivacyBudget.from_eps_delta(1.0, 1e-6, 1.0)
        stream = RngStream(33)
        if mode == "laplace_pure":
            noise = stream.laplace(g.m * budget.delta_inf / budget.epsilon, size=g.m)
        else:
            noise = stream.gaussian(gaussian_sigma_for_input_privatization(
                budget.rho, g.m, budget.delta_inf), size=g.m)
        r = sealfon_mst(g, budget, RngStream(33), mode=mode)
        assert r.noise.ids is None and r.noise.values.tobytes() == (g.weights + noise).tobytes()
        assert r.tree == kruskal_mst(g, g.weights + noise)


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

    def test_heavy_then_light(self):
        # vertex 2 joins at about exp(50) and the light clocks after it are
        # below its last bit, so Dijkstra's times tie and the certificate
        # must refuse its tree; an uncertified Dijkstra releases one tree
        g = build_graph(4, [(1, 2), (2, 3), (2, 4), (3, 4)], [100.0, 0.0, 0.3, 0.1])
        budget = budget_for_eps_prime(g, 1.0)
        noisy = perturb_weights(g, 1.0, 1.0, RngStream(45))
        tree, certified = _dijkstra_tree(g, 0.5 * noisy[None])
        assert not certified[0]
        assert sorted(np.flatnonzero(tree[0])) == sorted(_prim_race(g, 0.5 * noisy))
        counts = tree_counts(pamst, g, budget, 20000, RngStream(46))
        assert chi_square_gof(counts, prim_tree_distribution(g, 1.0), 0.001).passed

    def test_certificate_needs_a_margin(self):
        # lengths 1, 1 and 2 + 2^-51 on (1,2), (2,3), (1,3): the path through
        # vertex 2 wins by about an ulp, inside the rounding bound
        g = build_graph(3, [(1, 2), (2, 3), (1, 3)], [0.0, 0.0, 0.0])
        tree, certified = _dijkstra_tree(g, np.log([[1.0, 1.0, 2.0 + 2.0 ** -51],
                                                    [1.0, 1.0, 3.0]]))
        assert certified.tolist() == [False, True]
        # the refused row takes the race's tree, which the exact lengths give
        assert tree.tolist() == [[True, True, False], [True, True, False]]

    @pytest.mark.parametrize("graph", [
        lambda: erdos_renyi_instance(60, 0.3, 0, 100, RngStream(47)),
        lambda: erdos_renyi_instance(64, 1.0, 0, 100, RngStream(48)),
        multigraph,
    ], ids=["er60", "k64", "multigraph"])
    @pytest.mark.parametrize("rho", [0.01, 1.0])
    def test_dijkstra_and_exact_path_agree(self, graph, rho):
        g = graph()
        eps_prime = PrivacyBudget.from_rho(rho, 1e-6, 0.1).per_round(g.n - 1)
        clock = np.stack([perturb_weights(g, eps_prime, 0.1, RngStream(49, (seed,)))
                          for seed in range(20)])
        clock *= eps_prime / 0.2
        # the 20 seeds as one block: each row is its own copy of the graph
        tree, certified = _dijkstra_tree(g, clock)
        assert certified.any()
        for row, c in zip(tree, clock):
            assert sorted(np.flatnonzero(row)) == sorted(_prim_race(g, c))

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

    @pytest.mark.parametrize("n, p", [(64, 0.5), (64, 1.0), (256, 1.0)],
                             ids=["0.5", "1.0", "k256-above-size-rule"])
    def test_op_counts(self, n, p):
        # each vertex's incidence slots are read once, not the m edges per
        # round. Above the size rule the draws are the clocks revealed, and
        # the lazy Dijkstra reads two slots per revealed edge
        g = erdos_renyi_instance(n, p, 0, 100, RngStream(42, (int(10 * p),)))
        for rho in (0.01, 1.0, 1e18):
            r = pamst(g, PrivacyBudget.from_rho(rho, 1e-6, 0.1), RngStream(43))
            draws, scans = r.ops["draws"], r.ops["edge_scans"]
            if n == 64:
                assert scans <= 4 * g.m and draws == g.m
            else:
                assert g.n - 1 <= draws <= g.m
                assert scans <= 2 * draws + 4 * g.m
                if rho < 1e18:  # the revealed tree was certified
                    assert draws < g.m and scans == 2 * draws

    def test_error_indistinguishable_from_input_perturbation_on_dense_graph(self):
        from dpmst.harness import run_trials
        g = erdos_renyi_instance(256, 1.0, 0, 100, RngStream(5, (0,)))
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
        cis = {mech: run_trials(g, mech, budget, 50, 500).ci95_error()
               for mech in ("perturb", "pamst")}
        a, b = cis["perturb"], cis["pamst"]
        assert a[0] <= b[1] and b[0] <= a[1]


def k5():
    """K5 with U(0, 5) weights at two decimals (numpy seed 3)."""
    edges = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    return build_graph(5, edges, np.round(np.random.default_rng(3).uniform(0, 5, 10), 2))


def zero_rate_graph():
    """K3 with a fourth vertex hung on two edges whose weights are 1000
    noise scales: at eps' = 1 and delta_inf = 1 (scale b = 2) their rates
    exp(-w / b) underflow to 0, so only the lazy reveal's extension can
    draw their noise, and every tree holds one of them."""
    return build_graph(4, [(1, 2), (2, 3), (1, 3), (3, 4), (1, 4)],
                       [1.0, 2.0, 3.0, 2000.0, 2001.0])


def at_neighbour(g):
    """g at the neighbouring weights w + delta_inf * s, s = (+1, -1, +1, ...)."""
    signs = np.resize([1.0, -1.0], g.m)
    return build_graph(g.n, np.column_stack([g.u_arr, g.v_arr]), g.weights + g.delta_inf * signs)


def above_size_rule():
    """An ER graph on which input_perturbation_mst reveals its noise lazily."""
    n = 512
    p = min(1.0, 1.1 * max(LAZY_MIN_EDGES, LAZY_MIN_DENSITY * n * math.log(n)) / (n * (n - 1) / 2))
    g = erdos_renyi_instance(n, p, 0, 100, RngStream(41))
    assert is_lazy(g)
    return g


def is_lazy(g):
    """Whether g is above the size rule that both lazy reveals read."""
    return _first_window(g, 1.0, g.n) is not None


def complete(n):
    """K_n with U(0, 100) weights; K221 (24,310 edges) lies just below the
    size rule's floor and K256 (32,640) above it."""
    return erdos_renyi_instance(n, 1.0, 0.0, 100.0, RngStream(1, (1,)))


class CountingStream(RngStream):
    """An RngStream that counts its ln_exponential calls. The lazy reveal
    makes one only to extend its first window, and the full draw one per
    release."""

    def __init__(self, seed):
        super().__init__(seed)
        self.ln_exponential_calls = 0

    def ln_exponential(self, size=None):
        self.ln_exponential_calls += 1
        return super().ln_exponential(size)


class TestLazyReveal:
    """input_perturbation_mst's window: the full draw below the size rule,
    and the same tree distribution from the lazy reveal above it."""

    @pytest.mark.parametrize("graph, lazy", [
        (lambda: erdos_renyi_instance(12, 0.6, 0, 100, RngStream(13)), False),
        (partial(complete, 221), False),
        (partial(complete, 256), True),
        (above_size_rule, True),
    ], ids=["er-12", "k221", "k256", "above-size-rule"])
    def test_full_draw_below_the_size_rule(self, graph, lazy):
        # below the rule perturb, onepass and kruskal release Kruskal's tree
        # of the perturb_weights vector of the same stream: the tallies' row
        # t is call t, and criterion 9 shares its noise; above it they do not
        g = graph()
        assert is_lazy(g) == lazy
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 1.0)
        eps_prime = budget.per_round(g.n - 1)
        same = []
        for seed in range(3):
            full = kruskal_mst(g, perturb_weights(g, eps_prime, 1.0, RngStream(seed, (4,))))
            for mech in ("perturb", "onepass", "kruskal"):
                same.append(run_mechanism(mech, g, budget, RngStream(seed, (4,))).tree == full)
        assert not any(same) if lazy else all(same)

    def test_window_is_solved_once_per_graph_and_scale(self):
        g = above_size_rule()
        edges = np.column_stack([g.u_arr, g.v_arr])
        target = g.n / 2 * (math.log(g.n) + LAZY_GUMBEL)
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 1.0)
        scale = _noise_scale(budget.per_round(g.n - 1), 1.0)
        cold = [run_mechanism("perturb", g, budget, RngStream(seed, (6,))) for seed in range(3)]
        window = g.windows[scale, target]
        log_t = window.log_t
        # the cached window and its bucket envelopes are a fresh solve's,
        # and give the same releases
        fresh = build_graph(g.n, edges, g.weights)
        assert fresh.windows == {}
        solved = _first_window(fresh, scale, target)
        assert solved.log_t == log_t and solved.bucket == window.bucket
        assert np.array_equal(solved.sizes, window.sizes)
        assert solved.q.tobytes() == window.q.tobytes()
        for seed, result in enumerate(cold):
            warm = run_mechanism("perturb", g, budget, RngStream(seed, (6,)))
            assert warm.tree == result.tree
            assert np.array_equal(warm.noise.ids, result.noise.ids)
            assert np.array_equal(warm.noise.values, result.noise.values)
            assert warm.noise.clamp == result.noise.clamp
        # a second budget gets its own window
        assert _first_window(g, 2 * scale, target) is g.windows[2 * scale, target]
        assert g.windows[2 * scale, target].log_t != log_t
        # a graph of the same topology and other weights solves its own:
        # adding c to every weight adds c / b to ln T
        shifted = build_graph(g.n, edges, g.weights + 50.0)
        assert _first_window(shifted, scale, target).log_t == pytest.approx(log_t + 50.0 / scale)
        assert g.windows[scale, target] is window

    @pytest.mark.parametrize("window", ["first", "extension"])
    @pytest.mark.parametrize("neighbour", [False, True], ids=["w", "w+s"])
    @pytest.mark.parametrize("graph", [
        triangle,
        lambda: k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6]),
        k5,
        zero_rate_graph,
    ], ids=["k3", "k4-asymmetric", "k5", "zero-rate"])
    def test_matches_exact_distribution(self, graph, neighbour, window, monkeypatch):
        # the "first" window gives the lightest edge p_e = 0.8, so that the
        # thinning matters and some releases span at once and others extend;
        # the "extension" window reveals no edge, so every release extends.
        # Buckets of two edges give every graph several envelopes q_b.
        # Drawing every candidate's envelope clock at q_0 fails all eight
        # "first" cases, and keeping every candidate fails seven.
        monkeypatch.setattr(mechanisms, "LAZY_BUCKET", 2)
        g = at_neighbour(graph()) if neighbour else graph()
        budget = budget_for_eps_prime(g, 1.0)
        eps_prime = budget.per_round(g.n - 1)
        scale = _noise_scale(eps_prime, g.delta_inf)
        log_window = g.weights.min() / scale + (
            math.log(math.log(5.0)) if window == "first" else -50.0)
        trials, stream = 8000 if window == "first" else 4000, CountingStream(40)
        lazy_window = _window(g, scale, log_window)
        counts = Counter(
            _perturbed_tree(g, eps_prime, 1.0, stream, lazy_window, _kruskal_tree)[0].edge_ids
            for _ in range(trials))
        exact = exact_tree_distribution(g, eps_prime, g.delta_inf)
        assert chi_square_gof(counts, exact, 0.001).passed
        extended = stream.ln_exponential_calls
        if window == "extension" or graph is zero_rate_graph:
            assert extended == trials
        else:
            assert trials / 20 < extended < trials * 3 / 4

    def test_zero_rate_edges_have_their_odds(self):
        # (3, 4) and (1, 4) differ by one weight unit, so at eps' = 1 and
        # delta_inf = 1 their odds are exp(1/2), although neither rate is
        # representable
        g = zero_rate_graph()
        counts = Counter()
        stream, scale = RngStream(42), _noise_scale(1.0, g.delta_inf)
        window = _window(g, scale, 0.0)
        for _ in range(4000):
            tree = _perturbed_tree(g, 1.0, g.delta_inf, stream, window, _kruskal_tree)[0]
            counts[4 in tree.edge_ids] += 1
        assert counts[True] + counts[False] == 4000
        share = counts[True] / 4000
        expect = 1.0 / (1.0 + math.exp(-0.5))
        assert abs(share - expect) < 4 * math.sqrt(expect * (1 - expect) / 4000)

    @pytest.mark.parametrize("case", ["k256-kruskal", "k256-pamst", "k5"])
    def test_revealed_clocks_have_their_conditional_law(self, case, monkeypatch):
        # each revealed clock E_e is Exp(1) conditioned on E_e <= s_e T, so
        # u = (1 - exp(-E_e)) / p_e, its conditional CDF, is uniform; and edge
        # e is revealed in a call with probability p_e, independently of the
        # others. K256 runs at the er256-select budget in Kruskal's and
        # pamst's first windows, k5 at the "first" window of two-edge buckets.
        # Keeping a candidate's envelope x and drawing its clock as
        # -log1p(-x p_e), without rescaling x to [0, 1), fails the first
        # check in every case; dropping 3% of the revealed edges fails the
        # second in both K256 cases
        if case == "k5":
            monkeypatch.setattr(mechanisms, "LAZY_BUCKET", 2)
            g, delta_inf = k5(), 1.0
            scale = _noise_scale(budget_for_eps_prime(g, 1.0).per_round(g.n - 1), delta_inf)
            window = _window(g, scale, g.weights.min() / scale + math.log(math.log(5.0)))
        else:
            g, delta_inf = complete(256), 0.1
            budget = PrivacyBudget.from_rho(1.0, 1e-6, delta_inf)
            scale = _noise_scale(budget.per_round(g.n - 1), delta_inf)
            target = (g.n / 2 * (math.log(g.n) + LAZY_GUMBEL) if case == "k256-kruskal"
                      else mechanisms.PAMST_WINDOW * g.n * math.log(g.n))
            window = _first_window(g, scale, target)
        a = window.log_t - g.weights / scale
        p = -np.expm1(-np.exp(a))
        calls, stream = 300, RngStream(51)
        revealed, u = np.zeros(g.m), []
        for _ in range(calls):
            rev, noisy_rev = _reveal(g, scale, stream, window)
            assert np.all(np.diff(rev) > 0)
            revealed[rev] += 1
            ln_e = (noisy_rev - g.weights[rev]) / scale
            u.append(-np.expm1(-np.exp(ln_e)) / p[rev])
        assert stats.kstest(np.concatenate(u), "uniform").pvalue > 1e-3
        # the counts, pooled into groups of edges ordered by p_e that hold
        # equal shares of the binomial variance, so each group's sum is
        # close to normal: sum over groups of (O - E)^2 / Var is chi-square
        assert not revealed[p == 0].any()
        order = np.argsort(p)
        var = calls * p[order] * (1 - p[order])
        groups = min(20, g.m)
        cuts = np.searchsorted(np.cumsum(var), var.sum() * np.arange(1, groups) / groups)
        starts = np.unique(np.r_[0, cuts])
        observed = np.add.reduceat(revealed[order], starts)
        expected = np.add.reduceat(calls * p[order], starts)
        variance = np.add.reduceat(var, starts)
        statistic = ((observed - expected) ** 2 / variance).sum()
        assert stats.chi2.sf(statistic, len(observed)) > 1e-3


def _reference_reveal(g, scale, stream, log_window):
    """The lazy reveal written out again from its definition: the envelopes
    computed per call; for each candidate one x on [0, 1), read as 1 - U,
    which is exact on the 2^-53 grid, and its clock -log1p(-x q_b); the
    kept candidates ordered by a stable argsort of their ids."""
    w, m = g.weights, g.m
    bucket = min(mechanisms.LAZY_BUCKET,
                 1 << (max(1, math.ceil(g.n * math.log(g.n))) - 1).bit_length())
    lightest = w[g.by_weight[::bucket]] / scale
    sizes = np.minimum(bucket, m - bucket * np.arange(len(lightest)))
    with np.errstate(over="ignore", divide="ignore"):
        q = -np.expm1(-np.exp(log_window - lightest))
        heads = stream.coin_heads(sizes, q)
        cand = g.by_weight[heads]
        x = 1.0 - stream.uniform(len(cand))
        ln_e = np.log(-np.log1p(-(x * q[heads // bucket])))
        kept = np.flatnonzero(ln_e <= log_window - w[cand] / scale)
    kept = kept[np.argsort(cand[kept], kind="stable")]
    return cand[kept], w[cand[kept]] + scale * ln_e[kept]


def _reference_vector(g, budget, stream, log_window=None):
    """The m-vector the former input perturbation body returned: the full
    draw, or, at a window, the revealed weights and one clamp above them if
    they span, else the extended vector."""
    eps_prime = budget.per_round(g.n - 1)
    if log_window is None:
        return perturb_weights(g, eps_prime, budget.delta_inf, stream)
    scale = _noise_scale(eps_prime, budget.delta_inf)
    rev, noisy_rev = _reference_reveal(g, scale, stream, log_window)
    picked = _kruskal_picks(g.n, g.u_arr[rev], g.v_arr[rev], noisy_rev, g.n - 1)
    if len(picked) < g.n - 1:
        return _extend(g, scale, stream, log_window, rev, noisy_rev)
    clamp = np.nextafter(max(scale * log_window, noisy_rev.max()), math.inf)
    noisy = np.full(g.m, clamp)
    noisy[rev] = noisy_rev
    return noisy


def _reference_scan_ops(noisy, tree):
    """The former eager ranking of Kruskal's scan over an m-vector."""
    ids = np.fromiter(tree.edge_ids, dtype=np.int64) - 1
    tree_noisy = noisy[ids]
    last = tree_noisy.max()
    e_last = ids[tree_noisy == last].max()
    scanned = noisy < last
    scanned[:e_last + 1] |= noisy[:e_last + 1] == last
    return scanned.astype(np.int64), int(np.count_nonzero(scanned))


def expand(noise):
    """The m-vector a noise record stands for: its values on its ids and
    the clamp elsewhere."""
    if noise.ids is None:
        return noise.values
    full = np.full(noise.m, noise.clamp)
    full[noise.ids] = noise.values
    return full


def arrays_in(obj):
    """Every numpy array reachable from obj through attributes and containers."""
    stack, seen, found = [obj], set(), []
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found.append(o)
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif hasattr(o, "__dict__"):
            stack.extend(vars(o).values())
    return found


class TestNoiseRecord:
    """The NoisyWeights record of input perturbation: what it expands to, what
    it holds, and the scan's op counts read from it."""

    BUDGET = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)

    @staticmethod
    def low_window(g, budget):
        """The ln T by which about n clocks ring: some edges are revealed,
        but far fewer than the (n/2) ln n a spanning set needs, so every
        call extends."""
        scale = _noise_scale(budget.per_round(g.n - 1), budget.delta_inf)
        return _first_window(g, scale, g.n).log_t

    @pytest.mark.parametrize("graph", [partial(complete, 256), above_size_rule],
                             ids=["k256", "above-size-rule"])
    def test_first_window_expands_to_the_former_clamp_vector(self, graph):
        g = graph()
        eps_prime = self.BUDGET.per_round(g.n - 1)
        scale = _noise_scale(eps_prime, self.BUDGET.delta_inf)
        log_t = _first_window(g, scale, g.n / 2 * (math.log(g.n) + LAZY_GUMBEL)).log_t
        compact = 0
        for seed in range(8):
            r = run_mechanism("kruskal", g, self.BUDGET, RngStream(45, (seed,)))
            ref = _reference_vector(g, self.BUDGET, RngStream(45, (seed,)), log_t)
            assert expand(r.noise).tobytes() == ref.tobytes()
            assert r.tree == kruskal_mst(g, ref)
            compact += r.noise.ids is not None
        assert compact == 8

    def test_full_and_extended_paths_are_the_full_vector(self, monkeypatch):
        g = complete(256)
        r = run_mechanism("kruskal", k4_asymmetric(), self.BUDGET, RngStream(46))
        ref = _reference_vector(k4_asymmetric(), self.BUDGET, RngStream(46))
        assert r.noise.ids is None and r.noise.clamp is None
        assert expand(r.noise).tobytes() == ref.tobytes()
        log_t = self.low_window(g, self.BUDGET)
        monkeypatch.setattr(mechanisms, "_first_window",
                            lambda g, scale, target: _window(g, scale, log_t))
        for seed in range(3):
            r = run_mechanism("kruskal", g, self.BUDGET, RngStream(47, (seed,)))
            ref = _reference_vector(g, self.BUDGET, RngStream(47, (seed,)), log_t)
            assert r.noise.ids is None and r.noise.clamp is None
            assert r.noise.values.tobytes() == ref.tobytes()

    def test_first_window_result_holds_no_m_array(self):
        g = complete(256)
        lazy = run_mechanism("kruskal", g, self.BUDGET, RngStream(48))
        assert lazy.noise.ids is not None
        assert max(a.size for a in arrays_in(lazy)) < g.m // 10
        # the walk does find the full path's vector
        g = erdos_renyi_instance(40, 0.3, 0, 100, RngStream(32))
        full = run_mechanism("kruskal", g, self.BUDGET, RngStream(48))
        assert max(a.size for a in arrays_in(full)) == g.m

    def test_at_reads_recorded_values_and_the_clamp(self):
        noise = NoisyWeights(6, np.array([0.5, -1.0, 2.0]), np.array([1, 3, 4]), 2.5)
        assert noise.at(np.arange(6)).tolist() == [2.5, 0.5, 2.5, -1.0, 2.0, 2.5]
        assert noise.at(np.array([0, 5])).tolist() == [2.5, 2.5]
        mask = np.isin(np.arange(6), [0, 3, 5])
        assert noise.total(np.array([0, 3, 5]), mask) == noise.total(np.array([0, 3, 5])) == 4.0
        full = NoisyWeights(3, np.array([1.0, 2.0, 3.0]))
        assert full.at(np.array([0, 2])).tolist() == [1.0, 3.0]
        assert full.total(np.array([0, 2]), np.array([True, False, True])) == 4.0

    @pytest.mark.parametrize("path", ["k4", "full", "first-window", "extended"])
    def test_ops_equal_the_former_eager_ranking(self, path, monkeypatch):
        if path == "k4":
            g, budget = k4([1.0] * 6), budget_for_eps_prime(k4([1.0] * 6), 1.0)
        elif path == "full":
            g, budget = erdos_renyi_instance(40, 0.3, 0, 100, RngStream(32)), self.BUDGET
        else:
            g, budget = complete(256), self.BUDGET
        if path == "extended":
            log_t = self.low_window(g, budget)
            monkeypatch.setattr(mechanisms, "_first_window",
                                lambda g, scale, target: _window(g, scale, log_t))
        for seed in range(10 if g.m < 100 else 3):
            r = run_mechanism("kruskal", g, budget, RngStream(49, (seed,)))
            assert (r.noise.ids is not None) == (path == "first-window")
            assert "edge_checks" in r.ops and "draws" in r.ops and len(r.ops) == 2
            checks, draws = _reference_scan_ops(expand(r.noise), r.tree)
            assert np.array_equal(r.ops["edge_checks"], checks)
            assert r.ops["edge_checks"].dtype == np.int64 and r.ops["draws"] == draws

    def test_ops_hold_no_reference_to_their_result(self):
        r = run_mechanism("kruskal", complete(256), self.BUDGET, RngStream(50))
        assert not any(o is r for o in vars(r.ops).values())


def k4_asymmetric():
    return k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])


class TestLazyPamst:
    """pamst's window: the full draw below the size rule, and the same tree
    distribution from the lazy reveal above it."""

    # ln T less the lightest edge's w / b: "first" gives that edge p_e =
    # 0.8, so that some releases are certified at once and others extend;
    # "extension" reveals no edge; at "coverage" (p_e = 0.9) the revealed
    # edges span in most releases, and their distances often exceed T
    WINDOWS = {"first": math.log(math.log(5.0)), "extension": -50.0,
               "coverage": math.log(math.log(10.0))}
    GRAPHS = pytest.mark.parametrize("graph", [triangle, k4_asymmetric, k5],
                                     ids=["k3", "k4-asymmetric", "k5"])
    NEIGHBOURS = pytest.mark.parametrize("neighbour", [False, True], ids=["w", "w+s"])

    @staticmethod
    def setup_graph(graph, neighbour, window, monkeypatch):
        """The graph, at w or w + delta_inf * (+1, -1, +1, ...), its eps' for
        an eps' = 1 budget, and the window, with buckets of two edges so that
        every graph spans several envelopes."""
        monkeypatch.setattr(mechanisms, "LAZY_BUCKET", 2)
        g = at_neighbour(graph()) if neighbour else graph()
        eps_prime = budget_for_eps_prime(g, 1.0).per_round(g.n - 1)
        scale = _noise_scale(eps_prime, g.delta_inf)
        log_window = g.weights.min() / scale + TestLazyPamst.WINDOWS[window]
        return g, eps_prime, _window(g, scale, log_window)

    @pytest.mark.parametrize("graph, lazy", [
        (k4_asymmetric, False),
        (lambda: erdos_renyi_instance(12, 0.6, 0, 100, RngStream(13)), False),
        (partial(complete, 128), False),
        (partial(complete, 221), False),
        (partial(complete, 256), True),
    ], ids=["k4-asymmetric", "er-12", "k128", "k221", "k256"])
    def test_full_draw_below_the_size_rule(self, graph, lazy):
        # below the rule pamst releases the Dijkstra tree of the
        # perturb_weights vector of the same stream: the tallies' row t is
        # call t, whose Prim rule is that Dijkstra; above it it does not
        g = graph()
        assert is_lazy(g) == lazy
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 1.0)
        eps_prime = budget.per_round(g.n - 1)
        same = []
        for seed in range(3):
            clock = perturb_weights(g, eps_prime, 1.0, RngStream(seed, (5,))) * (eps_prime / 2.0)
            full = frozenset((np.flatnonzero(_dijkstra_tree(g, clock[None])[0][0]) + 1).tolist())
            same.append(pamst(g, budget, RngStream(seed, (5,))).tree.edge_ids == full)
        assert not any(same) if lazy else all(same)

    @pytest.mark.parametrize("window", ["first", "extension", "coverage"])
    @NEIGHBOURS
    @GRAPHS
    def test_matches_prim_distribution(self, graph, neighbour, window, monkeypatch):
        g, eps_prime, lazy_window = self.setup_graph(graph, neighbour, window, monkeypatch)
        trials, stream = 1500, CountingStream(43)
        counts, refused = Counter(), 0
        for _ in range(trials):
            tree, _, scans = _perturbed_tree(g, eps_prime, g.delta_inf, stream, lazy_window,
                                             _prim_tree)
            counts[tree.edge_ids] += 1
            # the race reads 2m slots, so more means a refused lazy Dijkstra
            refused += scans > 2 * g.m
        exact = prim_tree_distribution(g, eps_prime, g.delta_inf)
        assert chi_square_gof(counts, exact, 0.001).passed
        extended = stream.ln_exponential_calls
        if window == "extension":
            assert extended == trials
        else:
            assert trials / 20 < extended < trials * 19 / 20
        if window == "coverage":
            assert refused > trials / 20

    @NEIGHBOURS
    @GRAPHS
    def test_certified_tree_is_the_full_tree(self, graph, neighbour, monkeypatch):
        # the revealed edges' shortest-path tree is sometimes not the full
        # vector's: an unrevealed clock, above T but below some distance,
        # would shorten a path. Only the window's bound on the distances
        # refuses those; without it every case here fails
        g, eps_prime, window = self.setup_graph(graph, neighbour, "coverage", monkeypatch)
        scale = _noise_scale(eps_prime, g.delta_inf)
        stream, wrong, log_window = RngStream(44), 0, window.log_t
        for _ in range(600):
            rev, noisy_rev = _reveal(g, scale, stream, window)
            if len(rev) < g.n - 1:
                _extend(g, scale, stream, log_window, rev, noisy_rev)
                continue
            tree, certified = _dijkstra_tree(g, (noisy_rev / scale)[None], rev, log_window)
            noisy = _extend(g, scale, stream, log_window, rev, noisy_rev)
            full = sorted(_prim_tree(g, noisy, scale, None, -math.inf)[0].edge_ids)
            got = sorted((rev[tree[0]] + 1).tolist())
            if certified[0]:
                assert got == full
            wrong += len(got) == g.n - 1 and got != full
        assert wrong > 0


class TestOneNoisePath:
    """``_perturbed_tree`` under its two rules: on one stream and window,
    ``_kruskal_tree`` and ``_prim_tree`` see the same noise and differ only
    in the tree they take from it."""

    @staticmethod
    def records(g, eps_prime, delta_inf, window, seed):
        """The noise records of the two rules on streams of one seed."""
        return [_perturbed_tree(g, eps_prime, delta_inf, RngStream(seed, (8,)), window, rule)[1]
                for rule in (_kruskal_tree, _prim_tree)]

    @staticmethod
    def same_noise(kruskal, prim):
        """Assert that two records hold the same draws; return their kinds."""
        kinds = tuple("full" if r.ids is None else "compact" for r in (kruskal, prim))
        if kinds == ("full", "full"):
            assert kruskal.values.tobytes() == prim.values.tobytes()
        elif kinds == ("compact", "compact"):
            assert np.array_equal(kruskal.ids, prim.ids) and kruskal.clamp == prim.clamp
            assert kruskal.values.tobytes() == prim.values.tobytes()
        else:
            compact, full = (kruskal, prim) if kinds[0] == "compact" else (prim, kruskal)
            assert full.values[compact.ids].tobytes() == compact.values.tobytes()
        return kinds

    @pytest.mark.parametrize("graph", [k4_asymmetric, k5], ids=["k4-asymmetric", "k5"])
    def test_forced_windows(self, graph, monkeypatch):
        kinds = Counter()
        for window in ("first", "coverage", "extension"):
            g, eps_prime, lazy_window = TestLazyPamst.setup_graph(graph, False, window,
                                                                  monkeypatch)
            for seed in range(40):
                kinds[self.same_noise(*self.records(g, eps_prime, g.delta_inf, lazy_window,
                                                    seed))] += 1
        # a Prim tree certified from the revealed edges means they span
        assert kinds[("full", "compact")] == 0
        assert min(kinds[k] for k in [("compact", "compact"), ("compact", "full"),
                                       ("full", "full")]) > 0

    def test_k256_at_the_benchmark_budget(self):
        g = complete(256)
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
        eps_prime = budget.per_round(g.n - 1)
        scale = _noise_scale(eps_prime, budget.delta_inf)
        wanted = {("compact", "full"), ("compact", "compact"), ("full", "full")}
        kinds = Counter()
        for target in (g.n / 2 * (math.log(g.n) + LAZY_GUMBEL),
                       mechanisms.PAMST_WINDOW * g.n * math.log(g.n), g.n):
            window = _first_window(g, scale, target)
            # seeds 0-2, then on in order until every kind has occurred
            for seed in range(40):
                kinds[self.same_noise(*self.records(g, eps_prime, 0.1, window, seed))] += 1
                if seed >= 2 and set(kinds) >= wanted:
                    break
        # Kruskal's window spans but is sometimes short of Prim's
        # certificate, pamst's covers both, and one of about n clocks spans
        # neither
        assert set(kinds) == wanted

    @pytest.mark.parametrize("graph", [k4_asymmetric, k5, partial(complete, 221)],
                             ids=["k4-asymmetric", "k5", "k221"])
    def test_full_records_are_perturb_weights(self, graph):
        g = graph()
        assert not is_lazy(g)
        for seed in range(3):
            ref = perturb_weights(g, 0.7, 0.5, RngStream(seed, (8,)))
            for record in self.records(g, 0.7, 0.5, None, seed):
                assert record.ids is None and record.values.tobytes() == ref.tobytes()


class TestCrossMechanismInvariants:
    def test_noisy_tree_never_beats_noisy_true_mst(self):
        # above the size rule the true tree's clamped sum is at most its
        # full-noise sum, so the check is at least as strict
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
        for g in (erdos_renyi_instance(20, 0.5, 0, 100, RngStream(19)), above_size_rule()):
            true_ids = np.sort([e - 1 for e in kruskal_mst(g).edge_ids])
            for seed in range(50):
                r = input_perturbation_mst(g, budget, RngStream(seed, (3,)))
                got = r.noise.at(np.sort([e - 1 for e in r.tree.edge_ids])).sum()
                ref = r.noise.at(true_ids).sum()
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
        # above the size rule too, where the record expands to the clamp
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
        for g in (erdos_renyi_instance(15, 0.5, 0, 100, RngStream(23)), above_size_rule()):
            for mech in ("perturb", "kruskal", "onepass", "sealfon-laplace", "sealfon-gauss"):
                for seed in range(5):
                    r = run_mechanism(mech, g, budget, RngStream(24, (seed,)))
                    assert r.tree == kruskal_mst(g, expand(r.noise))


def spans_as_its_own_ids(g, tree):
    """Assert that a produced tree spans g and equals the tree of its own
    1-based ids; return it."""
    assert is_spanning_tree(g, tree)
    assert tree == SpanningTree((tree.index + 1).tolist())
    return tree


class TestProducerParity:
    """Every producer builds the released tree from its sorted index array,
    and builds the same tree as the others that share its rule."""

    @pytest.mark.parametrize("graph", [
        k4_asymmetric, k5,
        lambda: erdos_renyi_instance(30, 0.4, 0, 100, RngStream(17)),
        partial(complete, 64),
        lambda: erdos_renyi_instance(400, 0.2, 0, 100, RngStream(6)),
    ], ids=["k4-asymmetric", "k5", "er-30", "k64", "er-400"])
    def test_full_and_subset_producers(self, graph, monkeypatch):
        g = graph()
        scale = _noise_scale(1.0, g.delta_inf)
        subset_trees = Counter()
        for seed in range(3):
            noisy = perturb_weights(g, 1.0, g.delta_inf, RngStream(seed, (9,)))
            ref = spans_as_its_own_ids(g, kruskal_mst(g, noisy))
            if g.m <= 10:
                assert ref == brute_force_mst(g, noisy)
            for most in (0, math.inf):  # kruskal_mst's Borůvka branch, then its scan
                monkeypatch.setattr(graph_module, "SCAN_MAX_EDGES", most)
                monkeypatch.setattr(graph_module, "SCAN_MAX_STEPS", most)
                assert spans_as_its_own_ids(g, kruskal_mst(g, noisy)) == ref
                assert spans_as_its_own_ids(g, _kruskal_tree(g, noisy, scale, None,
                                                             -math.inf)[0]) == ref
            monkeypatch.undo()
            monkeypatch.setattr(mechanisms, "PAMST_RACE_MAX_N", 0)
            dijkstra = spans_as_its_own_ids(g, _prim_tree(g, noisy, scale, None, -math.inf)[0])
            monkeypatch.setattr(mechanisms, "PAMST_RACE_MAX_N", g.n)
            assert spans_as_its_own_ids(g, _prim_tree(g, noisy, scale, None,
                                                      -math.inf)[0]) == dijkstra
            race = _prim_race(g, noisy / scale)
            assert race.dtype == np.int64 and SpanningTree(race + 1) == dijkstra
            # the lightest three quarters, every other edge above them
            cut = np.quantile(noisy, 0.75)
            edges = np.flatnonzero(noisy <= cut)
            for rule, full in ((_kruskal_tree, ref), (_prim_tree, dijkstra)):
                tree = rule(g, noisy[edges], scale, edges, cut / scale)[0]
                if tree is not None:
                    assert spans_as_its_own_ids(g, tree) == full
                    subset_trees[rule] += 1
        assert subset_trees[_kruskal_tree] > 0 and subset_trees[_prim_tree] > 0

    def test_lazy_producers_on_k256(self):
        # at the er256-select budget, through the first window of each rule
        g = complete(256)
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
        eps_prime = budget.per_round(g.n - 1)
        scale = _noise_scale(eps_prime, budget.delta_inf)
        compact = Counter()
        for rule, target in ((_kruskal_tree, g.n / 2 * (math.log(g.n) + LAZY_GUMBEL)),
                             (_prim_tree, mechanisms.PAMST_WINDOW * g.n * math.log(g.n))):
            window = _first_window(g, scale, target)
            for seed in range(3):
                tree, noise, _ = _perturbed_tree(g, eps_prime, budget.delta_inf,
                                                 RngStream(seed, (9,)), window, rule)
                spans_as_its_own_ids(g, tree)
                if rule is _kruskal_tree:
                    assert tree == kruskal_mst(g, expand(noise))
                compact[rule] += noise.ids is not None
        assert compact[_kruskal_tree] > 0 and compact[_prim_tree] > 0

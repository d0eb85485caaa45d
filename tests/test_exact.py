import math
import subprocess
import sys
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dpmst.exact import (MAX_EDGES, SizeGuardError, brute_force_mst, chi_square_gof,
                         cycle_rule, enumerate_spanning_trees,
                         exact_selection_distribution, exact_tree_distribution,
                         join_table, prim_tree_distribution)
from dpmst.graph import build_graph, join, kruskal_mst
from dpmst.rng import RngStream
from dpmst.selfcheck import random_connected_graph

from .test_graph import k4, triangle
from .test_mechanisms import parallel_edges


def matrix_tree_count(g):
    """Kirchhoff: the number of spanning trees is any cofactor of the
    Laplacian (parallel edges counted), a count independent of the union-find."""
    lap = np.zeros((g.n, g.n))
    for u, v in zip(g.u_arr - 1, g.v_arr - 1):
        lap[u, v] -= 1
        lap[v, u] -= 1
        lap[u, u] += 1
        lap[v, v] += 1
    return round(np.linalg.det(lap[1:, 1:]))


def complete_graph(n, weights):
    return build_graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)],
                       weights)


def prim_paths_reference(g, eps_prime, delta_inf=1.0):
    """PAMST's tree distribution by enumerating every path of cut choices
    depth-first: each crossing edge is picked with probability
    exp(-eps' * (w_e - w_cut_min) / (2 * delta_inf)) over the sum of these
    across the cut, and each tree's path probabilities are summed with fsum.
    The paths number the product of the n-1 cut sizes, so this is for graphs
    of a few vertices."""
    coef = eps_prime / (2.0 * delta_inf)
    w = g.weights.tolist()
    ends = list(zip(g.u_arr.tolist(), g.v_arr.tolist()))
    paths = {}

    def visit(in_tree, chosen, prob):
        if len(in_tree) == g.n:
            paths.setdefault(frozenset(chosen), []).append(prob)
            return
        cut = [e for e, (u, v) in enumerate(ends) if (u in in_tree) != (v in in_tree)]
        low = min(w[e] for e in cut)
        s = [math.exp(-coef * (w[e] - low)) for e in cut]
        total = math.fsum(s)
        for e, se in zip(cut, s):
            u, v = ends[e]
            visit(in_tree | {u, v}, chosen + (e + 1,), prob * (se / total))

    visit(frozenset({1}), (), 1.0)
    return {t: math.fsum(p) for t, p in paths.items()}


def collapse(dist, key_fn):
    """Marginalize a distribution by mapping outcomes through key_fn
    and summing."""
    grouped = {}
    for outcome, p in dist.items():
        grouped.setdefault(key_fn(outcome), []).append(p)
    return {k: math.fsum(v) for k, v in grouped.items()}


def selection_reference(g, eps_prime):
    """The private-Kruskal tree distribution through the ordered-selection
    enumeration with the cycle rule, collapsed to edge sets."""
    s = np.exp(-eps_prime * (g.weights - g.weights.min()) / 2.0)
    seqs = exact_selection_distribution(s.tolist(), g.n - 1, cycle_rule(g))
    return collapse(seqs, lambda seq: frozenset(e + 1 for e in seq))


class TestEnumeration:
    def test_k3_has_three_trees(self):
        assert len(enumerate_spanning_trees(triangle())) == 3

    def test_k4_has_sixteen_trees(self):
        assert len(enumerate_spanning_trees(k4([1.0] * 6))) == 16

    def test_path_has_one_tree(self):
        g = build_graph(4, [(1, 2), (2, 3), (3, 4)], [1.0, 1.0, 1.0])
        assert len(enumerate_spanning_trees(g)) == 1

    def test_count_matches_matrix_tree_theorem(self):
        stream = RngStream(102)
        for _ in range(40):
            g = random_connected_graph(stream, max_n=7)
            assert len(enumerate_spanning_trees(g)) == matrix_tree_count(g)

    def test_size_guard(self):
        g = build_graph(11, [(i, i + 1) for i in range(1, 11)], [1.0] * 10)
        with pytest.raises(SizeGuardError):
            enumerate_spanning_trees(g)


class TestBruteForceMst:
    def test_triangle(self):
        assert brute_force_mst(triangle()).edge_ids == frozenset({1, 2})

    def test_tie_break_matches_kruskal(self):
        g = k4([1.0] * 6)
        assert brute_force_mst(g) == kruskal_mst(g)

    def test_agrees_with_kruskal_on_random_graphs(self):
        stream = RngStream(101)
        for _ in range(300):
            g = random_connected_graph(stream)
            assert brute_force_mst(g) == kruskal_mst(g)


class TestSelectionDistribution:
    def test_two_symmetric_items(self):
        d = exact_selection_distribution([1.0, 1.0], 1)
        assert d[(0,)] == pytest.approx(0.5, abs=1e-15)
        assert d[(1,)] == pytest.approx(0.5, abs=1e-15)

    def test_hand_computed_products(self):
        d = exact_selection_distribution([1.0, 2.0, 3.0], 2)
        expected = {(2, 1): Fraction(1, 3), (1, 2): Fraction(1, 4),
                    (0, 1): Fraction(1, 15), (0, 2): Fraction(1, 10),
                    (1, 0): Fraction(1, 12), (2, 0): Fraction(1, 6)}
        assert set(d) == set(expected)
        for seq, frac in expected.items():
            assert d[seq] == pytest.approx(float(frac), abs=1e-14)
        assert math.fsum(d.values()) == pytest.approx(1.0, abs=1e-12)

    def test_k3_marginal_equals_tree_distribution(self):
        g = triangle()
        s = np.exp(-g.weights / 2.0)
        seqs = exact_selection_distribution(s.tolist(), 2, cycle_rule(g))
        trees = collapse(seqs, lambda seq: frozenset(e + 1 for e in seq))
        ref = exact_tree_distribution(g, 1.0)
        assert set(trees) == set(ref)
        for k, v in ref.items():
            assert trees[k] == pytest.approx(v, rel=1e-12)

    @pytest.mark.parametrize("weights", [
        [1.0, 0.0], [1.0, -1.0], [1.0, np.nan], [1.0, np.inf, np.inf]])
    def test_rejects_bad_weights(self, weights):
        with pytest.raises(ValueError):
            exact_selection_distribution(weights, 1)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            exact_selection_distribution([1.0] * 9, 2)
        with pytest.raises(SizeGuardError):
            exact_selection_distribution([1.0] * 3, 7)

    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6),
           st.integers(1, 4), st.booleans())
    @settings(max_examples=50)
    def test_normalization(self, weights, k, remove_larger):
        rule = (lambda sel: [j for j in range(len(weights)) if j > max(sel)]) \
            if remove_larger else None
        d = exact_selection_distribution(weights, k, rule)
        assert abs(math.fsum(d.values()) - 1.0) <= 1e-12

    @given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=5),
           st.floats(0.001, 1000.0))
    @settings(max_examples=50)
    def test_scale_invariance(self, weights, c):
        base = exact_selection_distribution(weights, 2)
        scaled = exact_selection_distribution([w * c for w in weights], 2)
        for seq, p in base.items():
            assert scaled[seq] == pytest.approx(p, rel=1e-10)


class TestTreeDistribution:
    def test_k3_frozen_values(self):
        d = exact_tree_distribution(triangle(), 1.0)
        assert d[frozenset({1, 2})] == pytest.approx(0.5398416330577069, abs=1e-12)
        assert d[frozenset({1, 3})] == pytest.approx(0.30719588571849843, abs=1e-12)
        assert d[frozenset({2, 3})] == pytest.approx(0.15296248122379458, abs=1e-12)

    @pytest.mark.parametrize("eps_prime,delta_inf", [
        (0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0), (1.0, 0.0), (1.0, np.nan), (1.0, np.inf)])
    def test_rejects_bad_eps_prime_or_delta_inf(self, eps_prime, delta_inf):
        with pytest.raises(ValueError):
            exact_tree_distribution(triangle(), eps_prime, delta_inf)

    def test_k3_equal_weights_uniform(self):
        d = exact_tree_distribution(triangle([2.0, 2.0, 2.0]), 1.0)
        for p in d.values():
            assert p == pytest.approx(1 / 3, abs=1e-12)

    def test_k4_equal_weights_hand_derived(self):
        # random-order greedy on K4: the four stars get 1/15 each and the
        # twelve paths 11/180 each (not uniform)
        g = k4([1.0] * 6)
        d = exact_tree_distribution(g, 1.0)
        assert len(d) == 16
        star_count = 0
        for t, p in d.items():
            degree = {}
            for e in t:
                for v in (g.u_arr[e - 1], g.v_arr[e - 1]):
                    degree[v] = degree.get(v, 0) + 1
            if max(degree.values()) == 3:
                star_count += 1
                assert p == pytest.approx(1 / 15, abs=1e-12)
            else:
                assert p == pytest.approx(11 / 180, abs=1e-12)
        assert star_count == 4

    def test_uniform_limit_as_eps_vanishes(self):
        g = k4([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        d = exact_tree_distribution(g, 1e-9)
        ref = exact_tree_distribution(k4([1.0] * 6), 1.0)
        for t, p in d.items():
            assert p == pytest.approx(ref[t], rel=1e-6)

    def test_concentration_as_eps_grows(self):
        g = triangle()
        best = kruskal_mst(g).edge_ids
        probs = [exact_tree_distribution(g, e)[best] for e in (1.0, 4.0, 16.0, 64.0)]
        assert all(a < b for a, b in zip(probs, probs[1:]))
        assert probs[-1] > 0.999

    def test_cycle_rule_matches_paths_in_the_prefix_forest(self):
        stream = RngStream(103)
        for _ in range(100):
            g = random_connected_graph(stream, max_n=7)
            order = np.argsort(stream.uniform(g.m)).tolist()
            prefix = tuple(order[:1 + int(stream.uniform() * g.m)])
            forest = nx.Graph()
            forest.add_nodes_from(range(1, g.n + 1))
            forest.add_edges_from((int(g.u_arr[e]), int(g.v_arr[e])) for e in prefix)
            expect = [j for j in range(g.m) if j not in prefix
                      and nx.has_path(forest, int(g.u_arr[j]), int(g.v_arr[j]))]
            assert cycle_rule(g)(prefix) == expect

    def test_marginalization_order_independent(self):
        g = triangle()
        s = np.exp(-g.weights / 2.0)
        seqs = exact_selection_distribution(s.tolist(), 2, cycle_rule(g))
        forward = collapse(seqs, lambda q: frozenset(q))
        reversed_probs = dict(reversed(list(seqs.items())))
        backward = collapse(reversed_probs, lambda q: frozenset(q))
        for key, p in forward.items():
            assert backward[key] == pytest.approx(p, rel=1e-14)



class TestPrimTreeDistribution:
    def test_k3_closed_form(self):
        # edges a = (1,2), b = (2,3), c = (1,3); the first cut is {a, c}, then
        # {b, c} after a or {a, b} after c
        eps_prime, w = 0.7, (1.0, 2.5, 4.0)
        a, b, c = (math.exp(-eps_prime * x / 2.0) for x in w)
        d = prim_tree_distribution(triangle(w), eps_prime)
        assert len(d) == 3
        assert d[frozenset({1, 2})] == pytest.approx(a / (a + c) * b / (b + c), abs=1e-15)
        assert d[frozenset({2, 3})] == pytest.approx(c / (a + c) * b / (a + b), abs=1e-15)
        assert d[frozenset({1, 3})] == pytest.approx(
            a / (a + c) * c / (b + c) + c / (a + c) * a / (a + b), abs=1e-15)

    def test_tree_graph_is_a_point_mass(self):
        g = build_graph(5, [(1, 2), (2, 3), (2, 4), (4, 5)], [4.0, 1.0, 3.0, 2.0])
        d = prim_tree_distribution(g, 1.0)
        assert d == {frozenset({1, 2, 3, 4}): 1.0}

    def test_sums_to_one(self):
        stream = RngStream(104)
        for _ in range(20):
            g = random_connected_graph(stream, max_n=5)
            d = prim_tree_distribution(g, 0.5 + stream.uniform(), 0.5)
            assert math.fsum(d.values()) == pytest.approx(1.0, abs=1e-14)
            assert set(d) <= {t.edge_ids for t in enumerate_spanning_trees(g)}

    def test_concentrates_on_the_mst(self):
        g = k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        assert prim_tree_distribution(g, 1e3)[kruskal_mst(g).edge_ids] >= 1 - 1e-12

    def test_shifts_by_each_cut_minimum(self):
        # a global shift would leave the second cut's terms exp(-1000) and
        # exp(-1001), both 0.0 in double precision
        g = build_graph(3, [(1, 2), (2, 3), (2, 3)], [0.0, 1000.0, 1001.0])
        d = prim_tree_distribution(g, 2.0)
        assert d[frozenset({1, 2})] == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-15)
        assert d[frozenset({1, 3})] == pytest.approx(1 / (1 + math.e), abs=1e-15)

    def test_size_guard(self):
        g = build_graph(MAX_EDGES + 2, [(i, i + 1) for i in range(1, MAX_EDGES + 2)],
                        [1.0] * (MAX_EDGES + 1))
        with pytest.raises(SizeGuardError):
            prim_tree_distribution(g, 1.0)

    @pytest.mark.parametrize("eps_prime,delta_inf", [
        (0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0), (1.0, 0.0), (1.0, np.nan), (1.0, np.inf)])
    def test_rejects_bad_eps_prime_or_delta_inf(self, eps_prime, delta_inf):
        with pytest.raises(ValueError):
            prim_tree_distribution(triangle(), eps_prime, delta_inf)


class TestTreeDp:
    """The mask DP behind both tree oracles, against the enumerations it
    replaced, the matrix-tree theorem and closed forms."""

    @staticmethod
    def small_graphs():
        # every draw the selection enumeration takes (m <= 8, n - 1 <= 6)
        stream, out = RngStream(105), [triangle(), k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])]
        while len(out) < 60:
            g = random_connected_graph(stream)
            if g.m <= 8:
                out.append(g)
        return out

    @staticmethod
    def assert_same(got, ref):
        assert set(got) == set(ref)
        assert max(abs(got[t] - p) for t, p in ref.items()) <= 1e-14

    @pytest.mark.parametrize("eps_prime", [0.5, 1.0, 3.0])
    def test_kruskal_dp_matches_the_selection_enumeration(self, eps_prime):
        for g in self.small_graphs():
            self.assert_same(exact_tree_distribution(g, eps_prime),
                             selection_reference(g, eps_prime))

    @pytest.mark.parametrize("eps_prime", [0.5, 1.0, 3.0])
    def test_prim_dp_matches_the_path_enumeration(self, eps_prime):
        for g in self.small_graphs():
            self.assert_same(prim_tree_distribution(g, eps_prime),
                             prim_paths_reference(g, eps_prime))

    @staticmethod
    def multigraphs():
        # K5 (m = 10), K6 (m = 15) and random graphs with parallel edges
        stream = RngStream(106)
        out = [complete_graph(5, [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]),
               complete_graph(6, [stream.uniform() * 10.0 for _ in range(15)])]
        while len(out) < 6:
            g = random_connected_graph(stream, max_n=5)
            extra = [int(stream.uniform() * g.m) for _ in range(4)]
            edges = list(zip(g.u_arr.tolist(), g.v_arr.tolist()))
            edges += [edges[e] for e in extra]
            if len(edges) <= MAX_EDGES:
                out.append(build_graph(g.n, edges, [stream.uniform() * 10.0
                                                    for _ in edges]))
        return out

    @pytest.mark.parametrize("oracle", [exact_tree_distribution, prim_tree_distribution],
                             ids=["kruskal", "prim"])
    def test_support_is_every_spanning_tree(self, oracle):
        sizes = []
        for g in self.multigraphs():
            d = oracle(g, 1.0)
            sizes.append(len(d))
            assert len(d) == matrix_tree_count(g)
            assert all(len(t) == g.n - 1 for t in d)
            assert math.fsum(d.values()) == pytest.approx(1.0, abs=1e-15)  # an fsum
        assert sizes[:2] == [125, 1296]  # Cayley: n^(n-2)

    @pytest.mark.parametrize("oracle", [exact_tree_distribution, prim_tree_distribution],
                             ids=["kruskal", "prim"])
    def test_weight_span_beyond_a_global_shift(self, oracle):
        # after edge 1 the candidates weigh 1000 and 1001; shifted by the
        # global minimum 0 at eps' = 3 both terms underflow to 0.0
        g = build_graph(3, [(1, 2), (2, 3), (2, 3)], [0.0, 1000.0, 1001.0])
        d = oracle(g, 3.0)
        assert d[frozenset({1, 2})] == pytest.approx(1 / (1 + math.exp(-1.5)), abs=1e-15)
        assert d[frozenset({1, 3})] == pytest.approx(1 / (1 + math.exp(1.5)), abs=1e-15)

    @pytest.mark.parametrize("oracle", [exact_tree_distribution, prim_tree_distribution],
                             ids=["kruskal", "prim"])
    def test_support_keeps_trees_whose_probability_underflows(self, oracle):
        # exp(-1500) is 0.0, so both trees through edge 3 get probability
        # 0.0, yet they are spanning trees the steps reach
        d = oracle(triangle([0.0, 0.0, 3000.0]), 1.0)
        assert d == {frozenset({1, 2}): 1.0, frozenset({1, 3}): 0.0,
                     frozenset({2, 3}): 0.0}

    def test_size_guard(self):
        g = build_graph(4, [(1, 2), (2, 3), (3, 4)] * 5 + [(1, 3), (2, 4)],
                        [1.0] * (MAX_EDGES + 1))
        for build in (join_table, lambda g: exact_tree_distribution(g, 1.0)):
            with pytest.raises(SizeGuardError):
                build(g)


class TestJoinTable:
    @pytest.mark.parametrize("make", [lambda: k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6]),
                                      parallel_edges], ids=["k4", "parallel-edges"])
    def test_every_mask_cycles_included(self, make):
        # the bulk tally reads masks of all edges ranked before e, which
        # hold cycles; one union-find over A's edges then e (id -1) decides
        g = make()
        joins = join_table(g)
        edges = list(zip(range(g.m), g.u_arr.tolist(), g.v_arr.tolist()))
        for mask in range(1 << g.m):
            subgraph = [t for t in edges if mask >> t[0] & 1]
            for e, u, v in edges:
                joined = -1 in join(g.n, subgraph + [(-1, u, v)], g.n)
                assert joins[mask, e] == (joined << e)


UNIFORM3 = {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}


class TestChiSquare:
    def test_exactly_proportional_counts(self):
        res = chi_square_gof({"a": 100, "b": 100, "c": 100}, UNIFORM3, 0.001)
        assert res.statistic == 0.0 and res.passed

    def test_concentrated_counts_fail(self):
        res = chi_square_gof({"a": 300, "b": 0, "c": 0}, UNIFORM3, 0.001)
        assert res.statistic == pytest.approx(600.0, abs=1e-9)
        assert not res.passed

    def test_stray_outcome_fails(self):
        res = chi_square_gof({"a": 100, "b": 100, "c": 99, "d": 1}, UNIFORM3, 0.001)
        assert not res.passed and math.isinf(res.statistic)

    @pytest.mark.parametrize("alpha", [0.05, 0.001, 1e-6])
    def test_threshold_is_the_upper_alpha_quantile(self, alpha):
        for k in range(2, 41):
            exact = {i: 1 / k for i in range(k)}
            for stray in (0, 1):
                res = chi_square_gof({i: 100 for i in range(k + stray)}, exact, alpha)
                assert res.df == k - 1
                assert res.threshold == stats.chi2.isf(alpha, k - 1)

    def test_import_dpmst_leaves_scipy_stats_out(self):
        # scipy.stats was most of the import time of every dpmst command
        code = ("import sys, dpmst; "
                "print([m for m in sys.modules if m.startswith('scipy.stats')])")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (r.returncode, r.stdout) == (0, "[]\n"), r.stderr

    def test_calibration_meta_trial(self):
        # a correct sampler should pass at alpha=0.001 in >= 99 of 100 runs
        g = triangle()
        exact = exact_tree_distribution(g, 1.0)
        outcomes = list(exact)
        probs = np.array([exact[t] for t in outcomes])
        stream = RngStream(55)
        passes = 0
        for _ in range(100):
            draws = np.searchsorted(np.cumsum(probs), stream.uniform(3000))
            counts = {outcomes[i]: int((draws == i).sum()) for i in range(len(outcomes))}
            if chi_square_gof(counts, exact, 0.001).passed:
                passes += 1
        assert passes >= 99

    def test_small_expected_bins_pooled(self):
        exact = {"a": 0.96, "b": 0.02, "c": 0.02}
        res = chi_square_gof({"a": 96, "b": 3, "c": 1}, exact, 0.01)
        assert res.df == 1  # the two 2-count bins pool into one

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, math.nan, math.inf])
    def test_alpha_outside_open_unit_interval_rejected(self, alpha):
        # alpha = 0 gave an inf threshold that every tally passed
        with pytest.raises(ValueError, match="alpha"):
            chi_square_gof({"a": 100, "b": 100, "c": 100}, UNIFORM3, alpha)

    def test_degenerate_support_rejected(self):
        with pytest.raises(ValueError):
            chi_square_gof({"a": 10}, {"a": 1.0}, 0.01)

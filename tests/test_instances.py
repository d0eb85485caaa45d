import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmst import graph, instances
from dpmst.graph import GraphError, build_graph, kruskal_mst, tree_weight
from dpmst.instances import (GenerationError, ParseError, erdos_renyi_instance,
                             hard_instance, mi_sensitivity, mi_weight,
                             mutual_info_chain_instance, parity_even_prob,
                             read_instance, write_instance)
from dpmst.rng import RngStream

from .test_graph import k4


def chain_path_ids(g):
    return frozenset((np.flatnonzero(g.v_arr == g.u_arr + 1) + 1).tolist())


def endpoints(g):
    return np.column_stack((g.u_arr, g.v_arr))


class TestErdosRenyi:
    def test_p_one_is_complete(self):
        g = erdos_renyi_instance(20, 1.0, 0, 100, RngStream(1))
        assert g.m == 20 * 19 // 2

    def test_edge_density_estimate(self):
        g = erdos_renyi_instance(1000, 0.05, 0, 100, RngStream(2))
        assert abs(g.m / (1000 * 999 / 2) - 0.05) < 0.005

    def test_weights_within_range(self):
        g = erdos_renyi_instance(30, 0.5, 2.0, 7.0, RngStream(3))
        assert np.all(g.weights >= 2.0) and np.all(g.weights <= 7.0)

    def test_connectivity_cap(self):
        with pytest.raises(GenerationError):
            erdos_renyi_instance(20, 0.001, 0, 1, RngStream(4), max_attempts=5)

    @pytest.mark.parametrize("p, attempts", [(1.0, 1), (0.5, 1), (0.001, 5)])
    def test_one_connectivity_check_per_attempt(self, p, attempts, monkeypatch):
        # each attempt used to check its edges, then build_graph checked them again
        calls = []
        connected = graph._connected

        def counting(n, u_arr, v_arr):
            calls.append(n)
            return connected(n, u_arr, v_arr)

        for module in (graph, instances):
            monkeypatch.setattr(module, "_connected", counting, raising=False)
        if attempts == 1:
            erdos_renyi_instance(20, p, 0, 1, RngStream(4))
        else:
            with pytest.raises(GenerationError):
                erdos_renyi_instance(20, p, 0, 1, RngStream(4), max_attempts=attempts)
        assert calls == [20] * attempts

    def test_reproducible(self):
        a = erdos_renyi_instance(50, 0.2, 0, 100, RngStream(5))
        b = erdos_renyi_instance(50, 0.2, 0, 100, RngStream(5))
        assert np.array_equal(endpoints(a), endpoints(b))
        assert np.array_equal(a.weights, b.weights)


class TestMiWeight:
    def test_frozen_values(self):
        assert mi_weight(0.05, 1) == pytest.approx(0.7136, abs=5e-4)
        assert mi_weight(0.05, 2) == pytest.approx(0.5471, abs=5e-4)
        assert mi_weight(0.05, 3) == pytest.approx(0.4277, abs=5e-4)

    def test_independence_limit(self):
        assert mi_weight(0.499999, 1) < 1e-9

    def test_strictly_decreasing_in_k(self):
        vals = [mi_weight(0.1, k) for k in range(1, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v >= 0 for v in vals)

    @given(st.floats(0.01, 0.49), st.integers(1, 12))
    @settings(max_examples=80)
    def test_matches_four_term_joint_formula(self, p, k):
        # independent route: I = sum_{xy} p_xy * log2(p_xy / (p_x * p_y))
        a = (1 - 2 * p) ** k
        p00 = p11 = 0.25 + 0.25 * a
        p01 = p10 = 0.25 - 0.25 * a
        total = 0.0
        for pxy in (p00, p01, p10, p11):
            if pxy > 0:
                total += pxy * math.log2(pxy / 0.25)
        assert mi_weight(p, k) == pytest.approx(total, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            mi_weight(0.5, 1)
        with pytest.raises(ValueError):
            mi_weight(0.05, 0)


class TestParity:
    def test_single_flip(self):
        assert parity_even_prob(1, 0.3) == pytest.approx(0.7, abs=1e-15)

    def test_fair_flip_is_half(self):
        for k in range(1, 8):
            assert parity_even_prob(k, 0.5) == pytest.approx(0.5, abs=1e-15)

    @given(st.integers(0, 10), st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_matches_binomial_summation(self, k, p):
        brute = sum(math.comb(k, i) * p ** i * (1 - p) ** (k - i)
                    for i in range(0, k + 1, 2))
        assert parity_even_prob(k, p) == pytest.approx(brute, abs=1e-12)


class TestMutualInfoChain:
    def test_true_mst_is_the_path(self):
        g = mutual_info_chain_instance(12, 0.05, 10000)
        assert kruskal_mst(g).edge_ids == chain_path_ids(g)

    def test_small_instance_mst_weight(self):
        g = mutual_info_chain_instance(4, 0.05, 10000)
        w = tree_weight(g, kruskal_mst(g))
        assert w == pytest.approx(-3 * 0.7136, abs=1e-3)

    def test_sensitivity_value(self):
        assert mi_sensitivity(10**4) == pytest.approx(0.0013288, abs=1e-6)
        g = mutual_info_chain_instance(5, 0.05, 10**4)
        assert g.delta_inf == mi_sensitivity(10**4)

    @pytest.mark.parametrize("n", [2, 3, 30])
    @pytest.mark.parametrize("flip_p", [0.05, 0.3])
    def test_same_graph_as_the_pair_loop(self, n, flip_p):
        # the former generator: one mi_weight call per pair, in (i, j) order
        edges, weights = [], []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                edges.append((i, j))
                weights.append(-mi_weight(flip_p, j - i))
        ref = build_graph(n, edges, weights, delta_inf=mi_sensitivity(10**4))
        g = mutual_info_chain_instance(n, flip_p, 10**4)
        assert np.array_equal(endpoints(g), endpoints(ref))
        assert g.weights.tobytes() == ref.weights.tobytes()
        assert g.delta_inf == ref.delta_inf


class TestHardInstance:
    def test_weights_within_binomial_support(self):
        g = hard_instance(40, 0.5 * math.log(40), 10, RngStream(6))
        assert np.all(g.weights >= 0) and np.all(g.weights <= 10)
        assert g.weights == pytest.approx(np.round(g.weights))

    def test_mean_near_half_s(self):
        n, s = 100, 10
        g = hard_instance(n, 0.5 * math.log(n), s, RngStream(7))
        beta = 0.5 * math.log(n)
        var_p = 1.0 / (4.0 * (2 * beta + 1))
        var_w = s * s * var_p + s * (0.25 - var_p)
        sigma_mean = math.sqrt(var_w / g.m)
        assert abs(g.weights.mean() - s / 2) <= 3 * sigma_mean

    def test_domain(self):
        with pytest.raises(ValueError):
            hard_instance(10, 0.0, 10, RngStream(0))


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        g = k4([1.25, 0.1, 3.75, 1e-9, 100.0, 2.0 / 3.0])
        path = tmp_path / "k4.txt"
        write_instance(g, path)
        g2 = read_instance(path)
        assert g2.n == g.n and np.array_equal(endpoints(g2), endpoints(g))
        assert np.array_equal(g2.weights, g.weights)
        assert g2.delta_inf == g.delta_inf

    def test_round_trip_generated_delta_inf(self, tmp_path):
        g = mutual_info_chain_instance(5, 0.05, 10**4)
        path = tmp_path / "mi.txt"
        write_instance(g, path)
        assert read_instance(path).delta_inf == g.delta_inf

    def test_malformed_header_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 three 1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            read_instance(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text(
            "# a triangle\n\n3 3 1.0\n# edges follow\n1 2 1.0\n2 3 2.0\n1 3 3.0\n",
            encoding="utf-8")
        g = read_instance(path)
        assert g.n == 3 and g.m == 3

    def test_bad_edge_line_number(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("3 3 1.0\n1 2 1.0\n2 3 oops\n1 3 3.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3"):
            read_instance(path)

    def test_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("3 3 1.0\n1 2 1.0\n2 3 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_instance(path)

    def test_validation_errors_surface(self, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("2 1 1.0\n1 1 5.0\n", encoding="utf-8")
        with pytest.raises(GraphError):
            read_instance(path)

    @pytest.mark.parametrize("comments", [False, True])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_arrays_as_the_line_loop(self, tmp_path, seed, comments):
        g = erdos_renyi_instance(60, 0.3, -50.0, 50.0, RngStream(seed))
        path = tmp_path / "er.txt"
        write_instance(g, path)
        if comments:
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[1:1] = ["# edges follow", ""]
            lines.insert(len(lines) // 2, "   # a note")
            path.write_text("# generated\n\n" + "\n".join(lines) + "\n\n",
                            encoding="utf-8")
        got = read_instance(path)
        edges, weights = instances._read_edge_lines(path)
        assert np.array_equal(endpoints(got), edges)
        assert np.array_equal(got.weights, weights)
        assert np.array_equal(got.weights, g.weights)
        assert np.array_equal(endpoints(got), endpoints(g))

    def test_blank_lines_and_leading_comments_stay_on_the_fast_path(self, tmp_path,
                                                                    monkeypatch):
        def refuse(path):
            raise AssertionError("line loop used")

        monkeypatch.setattr(instances, "_read_edge_lines", refuse)
        path = tmp_path / "ok.txt"
        path.write_text("# a triangle\n\n3 3 1.0\n1 2 1.0\n\n   \n 2\t3 2.0 \n1 3 3.0\n",
                        encoding="utf-8")
        g = read_instance(path)
        assert endpoints(g).tolist() == [[1, 2], [2, 3], [1, 3]]
        assert g.weights.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("line", ["2 3 2.0 # note", "2.0 3 2.0", "2 3.0 2.0",
                                      "1e3 3 2.0"])
    def test_edge_lines_the_loop_rejects(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"3 3 1.0\n1 2 1.0\n{line}\n1 3 3.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3"):
            read_instance(path)

    def test_underscore_weight_accepted_as_the_loop_does(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("3 3 1.0\n1 2 1_0\n2 3 2.0\n1 3 3.0\n", encoding="utf-8")
        assert read_instance(path).weights.tolist() == [10.0, 2.0, 3.0]

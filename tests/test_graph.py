import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmst.exact import brute_force_mst
from dpmst.graph import (DisconnectedError, DisjointSets, EdgeIndexError,
                         EndpointError, GraphError, LengthMismatchError,
                         SelfLoopError, SpanningTree, build_graph,
                         is_spanning_tree, kruskal_mst, tree_weight)
from dpmst.harness import family_graph
from dpmst.instances import erdos_renyi_instance, hard_instance
from dpmst.rng import RngStream

TRIANGLE = dict(n=3, edges=[(1, 2), (2, 3), (1, 3)])


def triangle(weights=(1.0, 2.0, 3.0)):
    return build_graph(TRIANGLE["n"], TRIANGLE["edges"], list(weights))


def k4(weights):
    return build_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], weights)


def random_connected_graph(stream, max_n=6):
    """Random spanning path plus random extra edges; always connected."""
    n = 2 + int(stream.uniform() * (max_n - 1))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = {pr for pr in pairs if stream.uniform() <= 0.6}
    perm = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = int(stream.uniform() * (i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    for a, b in zip(perm, perm[1:]):
        keep.add((min(a, b), max(a, b)))
    edges = sorted(keep)
    weights = [stream.uniform() * 100.0 for _ in edges]
    return build_graph(n, edges, weights)


def _reference_kruskal(g, weights=None):
    """kruskal_mst before filter-Kruskal: one stable argsort of all m weights."""
    w = g.weights if weights is None else np.asarray(weights, dtype=float)
    order = np.argsort(w, kind="stable")
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    need = g.n - 1
    edges = g.edges
    for e in order:
        u, v = edges[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append(int(e) + 1)
            if len(chosen) == need:
                break
    if len(chosen) != need:
        raise DisconnectedError("graph is not connected")
    return SpanningTree(frozenset(chosen))


def filters(g) -> bool:
    """True when kruskal_mst sorts a prefix rather than all m weights."""
    return max(4 * (g.n - 1), 32 * math.isqrt(g.m)) < g.m


def random_weights(rng, m, kind):
    """Weight vectors for kruskal_mst: heavy ties, or ties mixed with
    infinities and NaN as a noisy vector may hold them."""
    if kind == "uniform":
        return rng.random(m) * 100.0
    w = rng.integers(0, 3, size=m).astype(float)
    if kind == "nonfinite":
        w[rng.random(m) < 0.1] = -np.inf
        w[rng.random(m) < 0.02] = np.inf
        w[rng.random(m) < 0.02] = np.nan
    return w


def bridged_cliques(size):
    """Two K_size joined by one bridge, the strictly heaviest edge."""
    clique = [(u, v) for u in range(1, size + 1) for v in range(u + 1, size + 1)]
    edges = clique + [(u + size, v + size) for u, v in clique] + [(size, size + 1)]
    weights = np.arange(len(edges), dtype=float) % 3
    weights[-1] = 3.0
    return build_graph(2 * size, edges, weights)


class TestBuildGraph:
    def test_valid_triangle(self):
        g = triangle()
        assert g.n == 3 and g.m == 3
        assert g.delta_inf == 1.0

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, [(1, 1)], [0.0])

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            build_graph(4, [(1, 2), (3, 4)], [1.0, 1.0])

    def test_isolated_last_vertex(self):
        with pytest.raises(DisconnectedError):
            build_graph(3, [(1, 2), (1, 2)], [1.0, 1.0])

    def test_single_vertex(self):
        g = build_graph(1, [], [])
        assert g.m == 0 and kruskal_mst(g) == SpanningTree(frozenset())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight(self, bad):
        with pytest.raises(GraphError):
            build_graph(3, [(1, 2), (2, 3)], [1.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_bad_delta_inf(self, bad):
        with pytest.raises(GraphError):
            build_graph(3, [(1, 2), (2, 3)], [1.0, 2.0], delta_inf=bad)

    def test_out_of_range_endpoint(self):
        with pytest.raises(EndpointError):
            build_graph(3, [(1, 2), (2, 4)], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            build_graph(3, [(1, 2), (2, 3)], [1.0])

    def test_weights_read_only(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.weights[0] = 99.0


class TestDisjointSets:
    def test_merge_idempotent(self):
        ds = DisjointSets(3)
        assert ds.merge(1, 2) is True
        assert ds.merge(1, 2) is False

    def test_chain_merges(self):
        ds = DisjointSets(4)
        for u, v in [(1, 2), (2, 3), (3, 4)]:
            assert ds.merge(u, v)
        assert ds.size(1) == 4
        assert ds.components() == [[1, 2, 3, 4]] or len(ds.components()) == 1

    def test_partition_after_two_merges(self):
        ds = DisjointSets(5)
        ds.merge(1, 2)
        ds.merge(3, 4)
        assert ds.find(1) != ds.find(3)

    def test_out_of_range(self):
        ds = DisjointSets(3)
        with pytest.raises(EndpointError):
            ds.merge(1, 4)

    @given(st.integers(2, 8), st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)),
                                       max_size=20))
    def test_members_partition_vertices(self, n, ops):
        ds = DisjointSets(n)
        for u, v in ops:
            if u <= n and v <= n and u != v:
                ds.merge(u, v)
        comps = ds.components()
        flat = sorted(v for comp in comps for v in comp)
        assert flat == list(range(1, n + 1))
        assert sum(len(c) for c in comps) == n


class TestKruskal:
    def test_triangle_unique(self):
        t = kruskal_mst(triangle())
        assert t.edge_ids == frozenset({1, 2})
        assert tree_weight(triangle(), t) == 3.0

    def test_tie_break_lowest_index(self):
        t = kruskal_mst(triangle([1.0, 1.0, 1.0]))
        assert t.edge_ids == frozenset({1, 2})

    def test_k4_matches_brute_force(self):
        stream = RngStream(17)
        g = k4(list(stream.uniform(6) * 10))
        assert kruskal_mst(g) == brute_force_mst(g)

    def test_noisy_weights_argument(self):
        g = triangle()
        t = kruskal_mst(g, np.array([5.0, 1.0, 2.0]))
        assert t.edge_ids == frozenset({2, 3})

    def test_spanning_on_random_graphs(self):
        stream = RngStream(3)
        for _ in range(300):
            g = random_connected_graph(stream)
            assert is_spanning_tree(g, kruskal_mst(g).edge_ids)

    @given(st.lists(st.integers(0, 1000), min_size=6, max_size=6),
           st.integers(-10**6, 10**6))
    @settings(max_examples=60)
    def test_weight_shift_invariance(self, weights, shift):
        # integer weights and shifts keep the float arithmetic exact
        g = k4([float(w) for w in weights])
        shifted = [float(w + shift) for w in weights]
        assert kruskal_mst(g) == kruskal_mst(g, shifted)


class TestFilterKruskal:
    """kruskal_mst must release exactly the tree of one stable sort."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["ties", "nonfinite", "uniform"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, seed, kind):
        g = random_connected_graph(RngStream(seed), max_n=70)
        w = random_weights(np.random.default_rng(seed), g.m, kind)
        assert kruskal_mst(g) == _reference_kruskal(g)
        assert kruskal_mst(g, w) == _reference_kruskal(g, w)

    @pytest.mark.parametrize("make", [
        lambda: bridged_cliques(100),  # widens twice to reach the bridge
        lambda: hard_instance(60, 0.5, 3, RngStream(11)),
        lambda: erdos_renyi_instance(300, 0.05, 0.0, 1.0, RngStream(5)),
    ], ids=["bridged-cliques", "hard-60", "er-300"])
    def test_filtered_instances(self, make):
        g = make()
        assert filters(g)
        assert kruskal_mst(g) == _reference_kruskal(g)
        rng = np.random.default_rng(g.m)
        for kind in ("ties", "nonfinite", "uniform"):
            w = random_weights(rng, g.m, kind)
            assert kruskal_mst(g, w) == _reference_kruskal(g, w)

    @pytest.mark.parametrize("make", [
        lambda: build_graph(500, [(i, i + 1) for i in range(1, 500)],
                            np.arange(499) % 3),
        lambda: family_graph("k3"),
        lambda: family_graph("k4"),
    ], ids=["path", "k3", "k4"])
    def test_unfiltered_instances(self, make):
        g = make()
        assert not filters(g)
        rng = np.random.default_rng(g.m)
        for w in [None] + [random_weights(rng, g.m, kind)
                           for kind in ("ties", "nonfinite", "uniform")]:
            assert kruskal_mst(g, w) == _reference_kruskal(g, w)

    @pytest.mark.parametrize("fill", [-np.inf, np.nan])
    def test_constant_vector_ties_break_by_id(self, fill):
        g = hard_instance(60, 0.5, 3, RngStream(2))
        w = np.full(g.m, fill)
        assert kruskal_mst(g, w) == _reference_kruskal(g, w)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["ties", "uniform"]))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, seed, kind):
        g = random_connected_graph(RngStream(seed), max_n=6)
        w = random_weights(np.random.default_rng(seed), g.m, kind)
        assert kruskal_mst(g, w) == brute_force_mst(g, w)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["ties", "uniform"]))
    @settings(max_examples=60, deadline=None)
    def test_weight_matches_networkx(self, seed, kind):
        nx = pytest.importorskip("networkx")
        g = random_connected_graph(RngStream(seed), max_n=40)
        w = random_weights(np.random.default_rng(seed), g.m, kind)
        ref = nx.Graph()
        ref.add_weighted_edges_from((u, v, float(x)) for (u, v), x in zip(g.edges, w))
        ids = np.fromiter(kruskal_mst(g, w).edge_ids, dtype=np.int64) - 1
        assert w[ids].sum() == pytest.approx(
            nx.minimum_spanning_tree(ref).size(weight="weight"), rel=1e-12)


class TestIncidence:
    @pytest.mark.parametrize("seed", range(5))
    def test_lists_each_edge_at_both_ends(self, seed):
        g = random_connected_graph(RngStream(60, (seed,)), max_n=9)
        indptr, edge_ids = g.incidence
        assert indptr[0] == indptr[1] == 0 and indptr[-1] == 2 * g.m
        for x in range(1, g.n + 1):
            at_x = edge_ids[indptr[x]:indptr[x + 1]].tolist()
            assert sorted(at_x) == [e for e, (u, v) in enumerate(g.edges) if x in (u, v)]

    def test_cached_and_read_only(self):
        g = k4([1.0] * 6)
        assert g.incidence is g.incidence
        for arr in g.incidence:
            with pytest.raises(ValueError):
                arr[0] = 1


class TestIsSpanningTree:
    def test_triangle_pair(self):
        assert is_spanning_tree(triangle(), {1, 2})

    def test_cycle_rejected(self):
        assert not is_spanning_tree(triangle(), {1, 2, 3})

    def test_wrong_size_rejected(self):
        g = k4([1.0] * 6)
        # edges (1,2) and (3,4) are ids 1 and 6
        assert not is_spanning_tree(g, {1, 6})

    def test_bad_ids_rejected(self):
        assert not is_spanning_tree(triangle(), {1, 99})


class TestTreeWeight:
    def test_triangle(self):
        assert tree_weight(triangle(), {1, 2}) == 3.0

    def test_all_zero(self):
        g = triangle([0.0, 0.0, 0.0])
        assert tree_weight(g, kruskal_mst(g)) == 0.0

    def test_path_all_edges(self):
        g = build_graph(4, [(1, 2), (2, 3), (3, 4)], [5.0, 7.0, 11.0])
        assert tree_weight(g, {1, 2, 3}) == 23.0

    def test_invalid_edge_id(self):
        with pytest.raises(EdgeIndexError):
            tree_weight(triangle(), {0})

    @pytest.mark.parametrize("ids", [{1, 4}, [-1]])
    def test_out_of_range_ids(self, ids):
        with pytest.raises(EdgeIndexError):
            tree_weight(triangle(), ids)

    def test_matches_loop_sum(self):
        # numpy sums in another order than the loop it replaced; the
        # tolerance is fixed from float64 rounding over ~2000 terms
        g = erdos_renyi_instance(2000, 0.01, -1e3, 1e6, RngStream(9))
        rng = np.random.default_rng(0)
        for ids in (kruskal_mst(g).edge_ids,
                    set(rng.choice(g.m, size=2000, replace=False) + 1)):
            loop = 0.0
            for e in ids:
                loop += g.weights[e - 1]
            assert tree_weight(g, ids) == pytest.approx(loop, rel=1e-12)

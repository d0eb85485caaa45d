import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmst import graph
from dpmst.exact import brute_force_mst
from dpmst.graph import (DisconnectedError, EdgeIndexError, EndpointError,
                         GraphError, LengthMismatchError, SelfLoopError,
                         SpanningTree, build_graph, is_spanning_tree, join,
                         kruskal_mst, tree_weight)
from dpmst.harness import family_graph
from dpmst.instances import erdos_renyi_instance, hard_instance
from dpmst.mechanisms import perturb_weights
from dpmst.rng import RngStream
from dpmst.selfcheck import random_connected_graph

TRIANGLE = dict(n=3, edges=[(1, 2), (2, 3), (1, 3)])


def triangle(weights=(1.0, 2.0, 3.0)):
    return build_graph(TRIANGLE["n"], TRIANGLE["edges"], list(weights))


def k4(weights):
    return build_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], weights)


def _reference_kruskal(g, weights=None):
    """kruskal_mst as one stable argsort of all m weights and the
    ``join`` scan along it."""
    w = g.weights if weights is None else np.asarray(weights, dtype=float)
    order = np.argsort(w, kind="stable")
    scan = zip((order + 1).tolist(), g.u_arr[order].tolist(), g.v_arr[order].tolist())
    chosen = join(g.n, scan, g.n - 1)
    if len(chosen) != g.n - 1:
        raise DisconnectedError("graph is not connected")
    return SpanningTree(frozenset(chosen))


def filters(g) -> bool:
    """True when kruskal_mst runs Borůvka over filtered batches rather than
    the one-by-one scan."""
    k = max(1, math.ceil(g.n * math.log(g.n)))
    return g.m > graph.SCAN_MAX_EDGES or min(k, g.m) > graph.SCAN_MAX_STEPS


def boruvka_tree(g, weights, k):
    """The Borůvka branch of kruskal_mst on any graph, with first batch k."""
    chosen = graph._boruvka_batches(g.n, g.u_arr, g.v_arr,
                                     np.asarray(weights, dtype=float), k, g.n - 1)
    if len(chosen) != g.n - 1:
        raise DisconnectedError("graph is not connected")
    return SpanningTree._from_index(np.sort(chosen))


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


def scipy_connected(n, edges) -> bool:
    """The connectivity check ``graph._connected`` replaced, as the oracle."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    u, v = (np.asarray([e[i] for e in edges], dtype=np.int64) for i in (0, 1))
    adj = coo_matrix((np.ones(len(u)), (u - 1, v - 1)), shape=(n, n))
    return connected_components(adj, directed=False, return_labels=False) == 1


@st.composite
def multigraphs(draw, max_n=40, max_m=250):
    """n vertices and m random (u, v) edges without self-loops: parallel
    edges and isolated vertices are likely, and m often exceeds
    kruskal_mst's first batch, so the filter between batches runs."""
    n, m = draw(st.integers(1, max_n)), draw(st.integers(0, max_m))
    if n == 1:
        return n, []
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.integers(1, n + 1, size=m)
    v = (u + rng.integers(1, n, size=m) - 1) % n + 1
    return n, list(zip(u.tolist(), v.tolist()))


@st.composite
def split_graphs(draw):
    """Random spanning trees on each block of a random partition of 1..n
    into c >= 2 blocks, plus the c - 1 edges that link the blocks."""
    n = draw(st.integers(2, 60))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=min(8, n - 1))))
    blocks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    edges = []
    for block in blocks:
        for i in range(1, len(block)):
            edges.append((block[draw(st.integers(0, i - 1))], block[i]))
    links = [(a[0], b[-1]) for a, b in zip(blocks, blocks[1:])]
    return n, draw(st.permutations(edges)), links


class TestConnected:
    @staticmethod
    def connected(n, edges):
        u, v = (np.asarray([e[i] for e in edges], dtype=np.int64) for i in (0, 1))
        return graph._connected(n, u, v)

    @given(multigraphs())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_scipy_on_multigraphs(self, case):
        n, edges = case
        assert self.connected(n, edges) == scipy_connected(n, edges)

    @given(multigraphs(max_n=12, max_m=30))
    @settings(max_examples=200, deadline=None)
    def test_build_graph_rejects_what_scipy_rejects(self, case):
        n, edges = case
        if scipy_connected(n, edges):
            assert build_graph(n, edges, np.ones(len(edges))).m == len(edges)
        else:
            with pytest.raises(DisconnectedError):
                build_graph(n, edges, np.ones(len(edges)))

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_no_edges(self, n):
        assert self.connected(n, []) == (n == 1) == scipy_connected(n, [])

    def test_too_few_edges_rejected_before_any_vertex_work(self, monkeypatch):
        # Borůvka's labels for 10^12 vertices would take 8 TB
        def no_boruvka(*args):
            raise AssertionError("ran Borůvka on fewer than n - 1 edges")

        monkeypatch.setattr(graph, "_boruvka_batches", no_boruvka)
        with pytest.raises(DisconnectedError):
            build_graph(10 ** 12, [], [])

    @given(split_graphs())
    @settings(max_examples=150, deadline=None)
    def test_several_components(self, case):
        n, edges, links = case
        assert not self.connected(n, edges) and not scipy_connected(n, edges)
        assert not self.connected(n, edges + links[1:])
        assert self.connected(n, edges + links) and scipy_connected(n, edges + links)

    @pytest.mark.parametrize("n", [2, 3, 17, 500, 2000])
    @pytest.mark.parametrize("shape", ["path", "star"])
    def test_paths_and_stars(self, n, shape):
        rng = np.random.default_rng(n)
        label = rng.permutation(n) + 1
        if shape == "path":
            edges = [(int(label[i]), int(label[i + 1])) for i in range(n - 1)]
        else:
            edges = [(int(label[0]), int(label[i])) for i in range(1, n)]
        edges = [edges[i] for i in rng.permutation(n - 1)]
        assert self.connected(n, edges) and scipy_connected(n, edges)
        for drop in {0, (n - 1) // 2, n - 2}:
            cut = edges[:drop] + edges[drop + 1:]
            assert not self.connected(n, cut) and not scipy_connected(n, cut)
            assert self.connected(n, cut + [edges[drop]] * 2)


class TestDisjointSets:
    def test_join_follows_scan_order_and_stops_at_need(self):
        scan = [(10, 1, 2), (11, 2, 3), (12, 1, 3), (13, 3, 4)]
        assert join(4, scan, 3) == [10, 11, 13]
        assert join(4, scan[::-1], 3) == [13, 12, 11]
        assert join(4, scan, 1) == [10]
        assert join(4, scan, 0) == []

    @given(st.integers(2, 8), st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)),
                                       max_size=20), st.integers(1, 8))
    def test_join_accepts_the_edges_whose_ends_are_not_yet_connected(self, n, ops, need):
        nx = pytest.importorskip("networkx")
        scan = [(i, u, v) for i, (u, v) in enumerate(ops) if u <= n and v <= n]
        forest = nx.Graph()
        forest.add_nodes_from(range(1, n + 1))
        expect = []
        for i, u, v in scan:
            if len(expect) == need:
                break
            if not nx.has_path(forest, u, v):
                forest.add_edge(u, v)
                expect.append(i)
        assert join(n, scan, need) == expect


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

    def test_mst_property_is_the_cached_exact_mst(self):
        stream = RngStream(18)
        for _ in range(20):
            g = random_connected_graph(stream)
            assert g.mst == kruskal_mst(g)
            assert g.mst is g.mst

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
        lambda: bridged_cliques(100),  # the bridge is alone in the last batch
        lambda: hard_instance(100, 0.5, 3, RngStream(11)),
        lambda: erdos_renyi_instance(300, 0.1, 0.0, 1.0, RngStream(5)),
    ], ids=["bridged-cliques", "hard-100", "er-300"])
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

    @pytest.mark.parametrize("kind", ["rounded", "rounded-tail", "one-minus-inf",
                                      "minus-inf-ties", "nan"])
    def test_batches_with_and_without_ties(self, kind):
        # a batch is sorted by the default sort unless it holds a tie or a
        # NaN; the bridge is in the last batch, so every batch is contracted
        g = bridged_cliques(100)
        assert filters(g)
        rng = np.random.default_rng(19)
        w = rng.random(g.m) * 100.0
        if kind == "rounded":  # ties in every batch
            w = np.round(w, 1)
        elif kind == "rounded-tail":  # ties only past the first batch
            w[w > 50.0] = np.round(w[w > 50.0], 1)
        elif kind == "one-minus-inf":
            w[rng.integers(g.m)] = -np.inf
        elif kind == "minus-inf-ties":
            w[rng.random(g.m) < 0.2] = -np.inf
        else:  # NaN weights come last: empty batches, then one with every
            # edge, where most of the tree is NaN edges tied with each other
            w[rng.random(g.m) < 0.98] = np.nan
        assert kruskal_mst(g, w) == _reference_kruskal(g, w)

    @pytest.mark.parametrize("fill", [-np.inf, np.nan])
    def test_constant_vector_ties_break_by_id(self, fill):
        g = hard_instance(100, 0.5, 3, RngStream(2))
        assert filters(g)
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
        ref.add_weighted_edges_from((u, v, float(x)) for u, v, x in
                                    zip(g.u_arr.tolist(), g.v_arr.tolist(), w))
        ids = np.fromiter(kruskal_mst(g, w).edge_ids, dtype=np.int64) - 1
        assert w[ids].sum() == pytest.approx(
            nx.minimum_spanning_tree(ref).size(weight="weight"), rel=1e-12)


class TestBoruvkaBatches:
    """The Borůvka branch against the reference on any graph, its first
    batch size forced where the size rule would pick the scan."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["ties", "nonfinite", "uniform"]),
           st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_at_any_first_batch(self, seed, kind, k):
        g = random_connected_graph(RngStream(seed), max_n=70)
        w = random_weights(np.random.default_rng(seed), g.m, kind)
        assert boruvka_tree(g, w, k) == _reference_kruskal(g, w)

    @pytest.mark.parametrize("eps_prime", [0.05, 1.0, 30.0])
    def test_noisy_er_vectors(self, eps_prime):
        g = erdos_renyi_instance(400, 0.1, 0.0, 100.0, RngStream(21))
        assert filters(g)
        for i in range(5):
            w = perturb_weights(g, eps_prime, 1.0, RngStream(22, (i,)))
            assert kruskal_mst(g, w) == _reference_kruskal(g, w)

    @pytest.mark.parametrize("k", [1, 40, 97, 300])
    def test_ties_straddle_a_batch_cut_off(self, k):
        g = erdos_renyi_instance(60, 0.3, 0.0, 1.0, RngStream(23))
        w = np.round(np.random.default_rng(k).random(g.m) * 8.0)
        cut = np.sort(w)[k - 1]
        assert (w == cut).sum() > 1 and (w < cut).sum() < k < (w <= cut).sum()
        assert boruvka_tree(g, w, k) == _reference_kruskal(g, w)

    @pytest.mark.parametrize("k", [1, 10, 100, 10**6])
    @pytest.mark.parametrize("kind", ["minus-inf", "nan", "both"])
    def test_minus_inf_and_nan(self, kind, k):
        g = erdos_renyi_instance(50, 0.3, 0.0, 1.0, RngStream(24))
        rng = np.random.default_rng(25)
        w = rng.random(g.m)
        if kind != "nan":
            w[rng.random(g.m) < 0.3] = -np.inf
        if kind != "minus-inf":
            w[rng.random(g.m) < 0.3] = np.nan
        assert boruvka_tree(g, w, k) == _reference_kruskal(g, w)

    @pytest.mark.parametrize("seed", range(4))
    def test_multigraph_with_parallel_edges(self, seed):
        rng = np.random.default_rng(seed)
        base = erdos_renyi_instance(40, 0.2, 0.0, 1.0, RngStream(26, (seed,)))
        edges = np.column_stack([base.u_arr, base.v_arr])
        edges = np.concatenate([edges, edges[rng.integers(base.m, size=base.m)]])
        g = build_graph(40, edges, np.zeros(len(edges)))
        for w in (rng.random(g.m), np.round(rng.random(g.m) * 4.0)):
            for k in (1, 50, g.m):
                assert boruvka_tree(g, w, k) == _reference_kruskal(g, w)

    def test_first_batch_that_does_not_span_runs_the_filter(self, monkeypatch):
        g = bridged_cliques(100)
        w = np.random.default_rng(27).random(g.m)
        w[-1] = 2.0  # the bridge is the heaviest edge
        cuts = []
        lightest = graph._lightest

        def counting(w, idx, k):
            cuts.append(g.m if idx is None else len(idx))
            return lightest(w, idx, k)

        monkeypatch.setattr(graph, "_lightest", counting)
        assert kruskal_mst(g, w) == _reference_kruskal(g, w)
        # the filter leaves the bridge alone for the second batch
        assert cuts == [g.m, 1]

    def test_single_vertex(self):
        g = build_graph(1, [], [])
        assert boruvka_tree(g, [], 1) == SpanningTree(frozenset())

    @pytest.mark.parametrize("size", [4, 100])
    def test_disconnected_result_raises(self, size):
        # two cliques with no bridge, past WeightedGraph's own check
        whole = bridged_cliques(size)
        g = SimpleNamespace(n=whole.n, m=whole.m - 1, u_arr=whole.u_arr[:-1],
                            v_arr=whole.v_arr[:-1], weights=whole.weights[:-1])
        assert filters(g) == (size == 100)
        with pytest.raises(DisconnectedError):
            kruskal_mst(g)
        with pytest.raises(DisconnectedError):
            boruvka_tree(g, g.weights, 7)


MULTIGRAPH = dict(n=4, edges=[(1, 2), (2, 1), (2, 3), (3, 4), (2, 3), (4, 1)])


class TestIncidence:
    """``adjacency``'s rows and ``slots``: each edge at both its ends."""

    @pytest.mark.parametrize("seed", range(5))
    def test_lists_each_edge_at_both_ends(self, seed):
        g = random_connected_graph(RngStream(60, (seed,)), max_n=9)
        indptr, cols, slots = g.adjacency
        assert indptr[0] == 0 and indptr[-1] == 2 * g.m == len(cols) == len(slots)
        for x in range(1, g.n + 1):
            # the edges whose first end is x, then those whose second end is
            at_x = np.flatnonzero(g.u_arr == x).tolist() + np.flatnonzero(g.v_arr == x).tolist()
            assert slots[indptr[x - 1]:indptr[x]].tolist() == at_x

    def test_cached_and_read_only(self):
        g = k4([1.0] * 6)
        assert g.adjacency is g.adjacency
        for arr in g.adjacency:
            with pytest.raises(ValueError):
                arr[0] = 1


class TestNeighbours:
    """``adjacency``'s ``cols``: the far end of the edge each entry names."""

    @staticmethod
    def assert_far_ends(g):
        indptr, cols, slots = g.adjacency
        assert indptr.dtype == cols.dtype == np.int32 and slots.dtype == np.intp
        for x in range(1, g.n + 1):
            lo, hi = indptr[x - 1], indptr[x]
            for e, y in zip(slots[lo:hi].tolist(), cols[lo:hi].tolist()):
                assert {x, y + 1} == {g.u_arr[e], g.v_arr[e]}

    @pytest.mark.parametrize("seed", range(5))
    def test_other_endpoint_of_each_slot(self, seed):
        self.assert_far_ends(random_connected_graph(RngStream(61, (seed,)), max_n=9))

    def test_multigraph(self):
        g = build_graph(MULTIGRAPH["n"], MULTIGRAPH["edges"], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        self.assert_far_ends(g)
        indptr, cols, slots = g.adjacency
        # the parallel edges stay duplicate entries
        assert slots[indptr[1]:indptr[2]].tolist() == [1, 2, 4, 0]
        assert (cols[indptr[1]:indptr[2]] + 1).tolist() == [1, 3, 3, 1]

    def test_cached_and_read_only(self):
        g = k4([1.0] * 6)
        indptr, cols, slots = g.adjacency
        assert g.adjacency[1] is cols
        with pytest.raises(ValueError):
            cols[0] = 1


class TestSubsetCsr:
    """``_csr`` of some of the edges, as ``_dijkstra_tree`` builds it for
    the revealed ones, is ``adjacency`` restricted to them, entry order and
    all, with the slots renumbered to positions in the subset."""

    @staticmethod
    def assert_restricts(g, keep):
        indptr, cols, slots = graph._csr(g.n, g.u_arr[keep], g.v_arr[keep])
        full_indptr, full_cols, full_slots = g.adjacency
        inside = np.isin(full_slots, keep)
        rows = np.repeat(np.arange(g.n), np.diff(full_indptr))
        counts = np.bincount(rows[inside], minlength=g.n)
        assert indptr.tolist() == [0] + counts.cumsum().tolist()
        assert cols.tolist() == full_cols[inside].tolist()
        assert keep[slots].tolist() == full_slots[inside].tolist()
        assert indptr.dtype == cols.dtype == np.int32 and slots.dtype == np.intp

    @pytest.mark.parametrize("seed", range(5))
    def test_every_third_edge(self, seed):
        g = random_connected_graph(RngStream(62, (seed,)), max_n=12)
        self.assert_restricts(g, np.arange(0, g.m, 3))

    def test_multigraph(self):
        g = build_graph(MULTIGRAPH["n"], MULTIGRAPH["edges"], np.ones(6))
        for keep in ([0, 1, 4], [1, 2, 4, 5], [3]):
            self.assert_restricts(g, np.array(keep))


class TestByWeight:
    def test_weight_then_id_order(self):
        g = k4([2.0, 1.0, 2.0, 0.5, 1.0, 2.0])
        assert g.by_weight.tolist() == [3, 1, 4, 0, 2, 5]

    def test_built_on_first_use_cached_and_read_only(self):
        # not in __init__: a graph that never reveals noise lazily never sorts
        g = k4([1.0] * 6)
        assert "by_weight" not in vars(g)
        assert g.by_weight is g.by_weight
        with pytest.raises(ValueError):
            g.by_weight[0] = 1


class TestIsSpanningTree:
    def test_triangle_pair(self):
        assert is_spanning_tree(triangle(), {1, 2})

    def test_cycle_rejected(self):
        assert not is_spanning_tree(triangle(), {1, 2, 3})

    def test_wrong_size_rejected(self):
        g = k4([1.0] * 6)
        # edges (1,2) and (3,4) are ids 1 and 6
        assert not is_spanning_tree(g, {1, 6})
        # three ids, two of them distinct; and n-1 ids with a repeat
        assert not is_spanning_tree(triangle(), [1, 1, 2])
        assert not is_spanning_tree(triangle(), [1, 1])
        assert not is_spanning_tree(g, [1, 2, 2])

    def test_bad_ids_rejected(self):
        assert not is_spanning_tree(triangle(), {1, 99})

    @pytest.mark.parametrize("ids", [{1, 4}, {0, 1}, {-1, 2}])
    def test_ids_just_outside_the_range_rejected(self, ids):
        assert not is_spanning_tree(triangle(), ids)

    @pytest.mark.parametrize("ids", [[1.5, 2], [1, 2.5], [float("nan"), 1], [None, 1]])
    def test_non_integral_ids_rejected(self, ids):
        # 1.5 used to be read as edge 1, so [1.5, 2] passed as a tree
        assert not is_spanning_tree(triangle(), ids)

    def test_integral_floats_and_numpy_ints_accepted(self):
        assert is_spanning_tree(triangle(), [2.0, np.int64(1)])
        assert is_spanning_tree(triangle(), np.array([1, 3], dtype=np.uint8))


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

    @pytest.mark.parametrize("ids", [[1.5, 2], [0.5], [float("inf")]])
    def test_non_integral_ids(self, ids):
        # [1.5, 2] used to weigh 3.0, as edges 1 and 2
        with pytest.raises(EdgeIndexError):
            tree_weight(triangle(), ids)

    def test_integral_floats_and_numpy_ints(self):
        assert tree_weight(triangle(), [2.0, np.int32(3)]) == 5.0

    def test_insertion_order_does_not_change_the_bits(self):
        # the same tree inserted in two orders iterates in two orders, and
        # adding in those orders gives two different last bits: ids 1, 9
        # and 17 share a slot of a small frozenset's 8-slot hash table, so
        # each lands where the ids inserted before it left room, and
        # (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
        edges, weights = [(1, 2)] * 17, [1.0] * 17
        edges[8], edges[16] = (2, 3), (3, 4)
        weights[0], weights[8], weights[16] = 0.1, 0.2, 0.3
        g = build_graph(4, edges, weights)
        ids = sorted(kruskal_mst(g).edge_ids)
        assert ids == [1, 9, 17]
        up, down = SpanningTree(frozenset(ids)), SpanningTree(frozenset(ids[::-1]))
        as_iterated = [g.weights[np.fromiter(t.edge_ids, dtype=np.int64) - 1].sum()
                       for t in (up, down)]
        assert as_iterated[0] != as_iterated[1]
        assert tree_weight(g, up) == tree_weight(g, down) == tree_weight(g, ids)

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


class TestSpanningTree:
    """A tree is its sorted 0-based index array; the frozenset of 1-based
    ids is read from it."""

    @staticmethod
    def trees():
        g = erdos_renyi_instance(30, 0.4, 0, 100, RngStream(2))
        return [kruskal_mst(g), SpanningTree({5, 2, 9}), SpanningTree([3, 1, 3, 2]),
                SpanningTree(frozenset()), SpanningTree._from_index(np.array([0, 4, 7]))]

    def test_index_is_increasing_int64_and_read_only(self):
        for t in self.trees():
            assert t.index.dtype == np.int64 and t.index.ndim == 1
            assert (np.diff(t.index) > 0).all()
            assert not t.index.flags.writeable
            with pytest.raises(ValueError):
                t.index[:1] = 0
        assert SpanningTree([3, 1, 3, 2]).index.tolist() == [0, 1, 2]

    def test_edge_ids_are_the_index_plus_one_as_python_ints(self):
        for t in self.trees():
            ids = t.edge_ids
            assert isinstance(ids, frozenset) and ids == frozenset(t.index + 1)
            assert all(type(e) is int for e in ids)
            assert t.edge_ids is ids and len(t) == len(ids)

    def test_both_constructors_give_equal_trees(self):
        g = erdos_renyi_instance(30, 0.4, 0, 100, RngStream(2))
        t = kruskal_mst(g)
        for other in (SpanningTree(t.edge_ids), SpanningTree(sorted(t.edge_ids, reverse=True)),
                      SpanningTree._from_index(t.index.copy())):
            assert other == t and hash(other) == hash(t)
            assert len({other, t}) == 1
        assert SpanningTree([1, 2]) == SpanningTree._from_index(np.array([0, 1]))
        assert hash(SpanningTree([1, 2])) == hash(SpanningTree._from_index(np.array([0, 1])))

    @pytest.mark.parametrize("ids", [[1.5, 2], [0, 1], [float("nan")], ["1"]])
    def test_refuses_ids_that_are_not_integers_of_at_least_one(self, ids):
        # SpanningTree([1.5, 2]) used to equal SpanningTree([1, 2]) and hash
        # differently from it
        with pytest.raises(ValueError):
            SpanningTree(ids)

    def test_integral_floats_and_numpy_ints_are_read_as_ints(self):
        for ids in ([1.0, 2.0], [np.int64(1), np.uint8(2)], np.array([2, 1])):
            t = SpanningTree(ids)
            assert t == SpanningTree([1, 2]) and hash(t) == hash(SpanningTree([1, 2]))
            assert t.edge_ids == {1, 2} and all(type(e) is int for e in t.edge_ids)

    def test_different_edge_sets_are_not_equal(self):
        assert SpanningTree([1, 2]) != SpanningTree([1, 3])
        assert SpanningTree([1, 2]) != SpanningTree([1, 2, 3])
        a, b = (SpanningTree._from_index(np.array(index)) for index in ([0, 1], [0, 2]))
        assert a != b
        assert SpanningTree([1, 2]) != frozenset({1, 2})

    @pytest.mark.parametrize("index", [[0, 0, 1], [0, 1, 1], [1, 0, 2], [2, 1]],
                             ids=["repeat", "repeat-last", "unsorted", "decreasing"])
    def test_array_constructor_refuses_repeats_and_disorder(self, index):
        with pytest.raises(ValueError):
            SpanningTree._from_index(np.array(index, dtype=np.int64))

    def test_immutable(self):
        t = SpanningTree([1, 2])
        with pytest.raises(AttributeError):
            t.index = np.array([0, 2])
        assert t == SpanningTree([1, 2])

"""Weighted-graph core: validation, the ``join`` scan, incidence, exact MST.

Vertices are 1-based (1..n) and edge ids are 1-based (1..m) everywhere in the
public API; internal arrays are 0-based.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Base class for graph validation failures."""


class SelfLoopError(GraphError):
    pass


class EndpointError(GraphError):
    pass


class LengthMismatchError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


class EdgeIndexError(GraphError):
    pass


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree as a set of 1-based edge ids (size n - 1)."""

    edge_ids: frozenset[int]

    def __len__(self):
        return len(self.edge_ids)


def join(n: int, edges, need: int) -> list[int]:
    """Union-find over vertices 1..n (union by size, path halving) along
    ``(e, u, v)`` triples in scan order: return the e of each edge that
    joined two components, stopping after ``need`` of them.

    The one union-find of the package: the spanning-tree check, the exact
    oracles' enumerations and cycle rule, and exact Kruskal on small graphs
    (the scan branch of ``kruskal_mst``). On larger graphs ``kruskal_mst``
    keeps its components as an array of labels instead, which Borůvka rounds
    merge many edges at a time; both give the same tree, the unique one
    under the (weight, id) ranks. The connectivity check every
    ``WeightedGraph`` passes (``_connected``) runs on those Borůvka labels
    too, with the edge ids as ranks. ``exact.join_table`` likewise labels
    the components of every edge mask at once.

    There is no per-edge range check: the endpoints come from a validated
    ``WeightedGraph``.
    """
    joined: list[int] = []
    if need < 1:
        return joined
    parent, size = list(range(n + 1)), [1] * (n + 1)
    for e, u, v in edges:
        # find(u) and find(v) written out: two calls per edge made a
        # long scan about 1.5 times slower
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            if size[u] < size[v]:
                u, v = v, u
            parent[v] = u
            size[u] += size[v]
            joined.append(e)
            if len(joined) == need:
                break
    return joined


class WeightedGraph:
    """Public topology (n vertices, m indexed edges) plus a private weight vector.

    Endpoints, finite weights, a positive finite ``delta_inf`` and
    connectivity are validated eagerly; mechanisms assume them. Immutable
    after construction.
    """

    def __init__(self, n, edges, weights, delta_inf: float = 1.0):
        if n < 1:
            raise GraphError(f"need at least one vertex, got {n}")
        if not (delta_inf > 0 and math.isfinite(delta_inf)):
            raise GraphError(f"delta_inf must be positive and finite, got {delta_inf}")
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(f"edges must be (u, v) pairs, got shape {arr.shape}")
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(weights) != len(arr):
            raise LengthMismatchError(
                f"{len(arr)} edges but {weights.size} weights")
        bad = np.flatnonzero(~np.isfinite(weights))
        if bad.size:
            raise GraphError(f"edge {bad[0] + 1} has non-finite weight {weights[bad[0]]}")
        u_arr, v_arr = arr[:, 0].copy(), arr[:, 1].copy()
        loop = u_arr == v_arr
        bad = np.flatnonzero(loop | (np.minimum(u_arr, v_arr) < 1)
                             | (np.maximum(u_arr, v_arr) > n))
        if bad.size:
            u, v = int(u_arr[bad[0]]), int(v_arr[bad[0]])
            if loop[bad[0]]:
                raise SelfLoopError(f"self-loop at vertex {u}")
            raise EndpointError(f"edge ({u}, {v}) outside [1, {n}]")
        if not _connected(n, u_arr, v_arr):
            raise DisconnectedError(f"graph on {n} vertices is not connected")
        self.n = int(n)
        self.u_arr, self.v_arr = u_arr, v_arr
        self.weights = weights.copy()
        self.weights.flags.writeable = False
        self.delta_inf = float(delta_inf)

    @property
    def m(self) -> int:
        return len(self.u_arr)

    @functools.cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex-to-edge incidence in CSR form, built on first use.

        A pair ``(indptr, edge_ids)``: the 0-based indices of the edges at
        vertex x are ``edge_ids[indptr[x]:indptr[x + 1]]``, each once.
        Both arrays are read-only.
        """
        indptr, order = _endpoint_slots(self.n, self.u_arr, self.v_arr)
        edge_ids = order % self.m
        indptr.flags.writeable = edge_ids.flags.writeable = False
        return indptr, edge_ids

    @functools.cached_property
    def neighbours(self) -> np.ndarray:
        """The other endpoint of each ``incidence`` slot, built on first use.

        Aligned with ``incidence``: ``neighbours[indptr[x]:indptr[x + 1]]``
        are the far ends of the edges ``edge_ids[indptr[x]:indptr[x + 1]]``
        at vertex x (a vertex repeats once per parallel edge). Read-only.
        """
        indptr, edge_ids = self.incidence
        at = np.repeat(np.arange(self.n + 1), np.diff(indptr))
        out = self.u_arr[edge_ids] + self.v_arr[edge_ids] - at
        out.flags.writeable = False
        return out

    @functools.cached_property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """``incidence`` and ``neighbours`` as the int32 ``(indptr, indices)``
        of an n x n CSR matrix, vertex v being row and column v - 1, built on
        first use. Its entries follow the incidence slots, so a parallel edge
        is a duplicate entry. Read-only.
        """
        indptr = self.incidence[0][1:].astype(np.int32)
        cols = (self.neighbours - 1).astype(np.int32)
        indptr.flags.writeable = cols.flags.writeable = False
        return indptr, cols

    @functools.cached_property
    def by_weight(self) -> np.ndarray:
        """The 0-based edge indices in (weight, id) order, built on first
        use: the weight buckets of ``input_perturbation_mst``'s lazy reveal.
        Read-only."""
        order = np.argsort(self.weights, kind="stable")
        order.flags.writeable = False
        return order

    @functools.cached_property
    def windows(self) -> dict:
        """The lazy reveal's first windows, ln T keyed by (noise scale,
        target count), filled by ``mechanisms._first_window``. The graph is
        immutable, so no entry goes stale."""
        return {}

    @functools.cached_property
    def mst(self) -> SpanningTree:
        """The exact MST of the graph's own weights, ``kruskal_mst(self)``,
        computed on first use."""
        return kruskal_mst(self)

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m}, delta_inf={self.delta_inf})"


def _endpoint_slots(n: int, u_arr: np.ndarray,
                    v_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2m endpoints of the edges (u_arr[i], v_arr[i]) grouped by vertex:
    ``(indptr, order)``, where the slots of vertex x are
    ``order[indptr[x]:indptr[x + 1]]``, each an index into
    ``concatenate([u_arr, v_arr])`` (so of edge ``order % m``), in
    increasing order. ``indptr`` has n + 2 entries, vertex 0 holding none.
    """
    ends = np.concatenate([u_arr, v_arr])
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n + 1), out=indptr[1:])
    if n < 1 << 16:  # numpy's stable sort of 16-bit keys is a radix sort, 6x faster
        ends = ends.astype(np.uint16)
    return indptr, np.argsort(ends, kind="stable")


def _connected(n, u_arr, v_arr) -> bool:
    """True iff the edges (u_arr[i], v_arr[i]) connect all of vertices 1..n.

    ``kruskal_mst``'s Borůvka engine under the edge ids as ranks: the edges
    connect the vertices iff that engine picks n - 1 of them, a spanning
    tree. Every ranking picks a spanning forest of the same components, so
    the ids serve, and the check needs no weights and no scipy.
    """
    k = max(1, math.ceil(n * math.log(n)))
    ranks = np.arange(len(u_arr), dtype=float)
    return len(_boruvka_batches(n, u_arr, v_arr, ranks, k, n - 1)) == n - 1


def build_graph(n, edges, weights, delta_inf: float = 1.0) -> WeightedGraph:
    """Validate and construct a WeightedGraph; see the error classes above."""
    return WeightedGraph(n, edges, weights, delta_inf)


# kruskal_mst's one-by-one scan sorts all m edges and walks about min(k, m)
# of them in Python; up to these sizes it beats the fixed cost of the array
# rounds (Borůvka over filtered batches). Median ms per call on noisy
# weights, scan against Borůvka, on a 2-core x86 machine: K90 (m = 4,005)
# 0.19 against 0.28, and K128 (m = 8,128) breaks even. ER(300, 0.05)
# (k = 1,712) 0.36 against 0.40, ER(330, 0.06) (k = 1,914) 0.32 against
# 0.28, ER(1000, 0.008) (m = 3,965) 1.16 against 0.83. Trees with
# 1,800 < m <= 4,096 lose at most 8% on Borůvka.
SCAN_MAX_EDGES, SCAN_MAX_STEPS = 4096, 1800


def kruskal_mst(g: WeightedGraph, weights=None) -> SpanningTree:
    """Exact MST for the given weights (default: the graph's own).

    Edges are ranked in (weight, edge id) order, so ties break toward the
    lowest edge id; NaN weights come last. Callers routinely pass noisy weight
    vectors distinct from ``g.weights``, which may hold -inf.

    The ranks are a strict total order, so the minimum spanning tree under
    them is unique: every branch below returns the tree of Kruskal's scan in
    that order, the one of a single stable sort of all m weights.

    Both branches start from k = ceil(n ln n) edges, about twice the prefix
    of a random order that spans.

    - m <= ``SCAN_MAX_EDGES`` and min(k, m) <= ``SCAN_MAX_STEPS``: one sort
      of all m weights, then the ``join`` scan along it, whose
      edges are turned into Python ints k, 2k, 4k, ... at a time. On such
      small graphs its per-edge Python costs less than the fixed cost of the
      array rounds.
    - Otherwise: filter-Kruskal (Osipov, Sanders & Singler, ALENEX 2009)
      with Borůvka rounds in place of the scan, see ``_boruvka_batches``.
    """
    w = g.weights if weights is None else np.asarray(weights, dtype=float)
    if len(w) != g.m:
        raise LengthMismatchError(f"expected {g.m} weights, got {len(w)}")
    chosen = _kruskal_picks(g.n, g.u_arr, g.v_arr, w, g.n - 1)
    if len(chosen) != g.n - 1:
        raise DisconnectedError("graph is not connected")
    return SpanningTree(frozenset(chosen))


def _kruskal_picks(n: int, u_arr: np.ndarray, v_arr: np.ndarray, w: np.ndarray,
                   need: int) -> list[int]:
    """The 1-based indices of Kruskal's picks under the (w, index) ranks
    among the edges (u_arr[i], v_arr[i]) over vertices 1..n, stopping at
    ``need``: the branch choice of ``kruskal_mst``, on any set of edges."""
    k = max(1, math.ceil(n * math.log(n)))
    if len(w) <= SCAN_MAX_EDGES and min(k, len(w)) <= SCAN_MAX_STEPS:
        scan = itertools.chain.from_iterable(
            _triples(u_arr, v_arr, _scan_order(w, np.arange(len(w))), k))
        return join(n, scan, need)
    return _boruvka_batches(n, u_arr, v_arr, w, k, need)


def _triples(u_arr: np.ndarray, v_arr: np.ndarray, order: np.ndarray, k: int):
    """Runs of (1-based index, u, v) along ``order``, k, 2k, 4k, ... edges
    long, so that a scan that stops early converts few edges to Python ints."""
    lo = 0
    while lo < len(order):
        run = order[lo:lo + k]
        yield zip((run + 1).tolist(), u_arr[run].tolist(), v_arr[run].tolist())
        lo, k = lo + k, 2 * k


def _boruvka_batches(n: int, u_arr: np.ndarray, v_arr: np.ndarray,
                     w: np.ndarray, k: int, need: int) -> list[int]:
    """The 1-based ids of Kruskal's picks on the edges (u_arr[i], v_arr[i])
    over vertices 1..n, stopping at ``need``, in the order the Borůvka
    rounds find them, found batch by batch with array work only.

    The first batch holds the k lightest edges (all of them when m <= k),
    each later one twice as many of the edges left. A batch is every left
    edge no heavier than the k-th lightest of them, ties included, so the
    batches are runs of the (weight, id) order. Each batch is sorted and
    handed to ``_boruvka`` in runs of 2n, 4n, ... edges, so that most of
    its heavier runs are dead before they are read. Before the next batch
    is cut, the filter drops every left edge whose ends already share a
    component: Kruskal would skip it.
    """
    comp = np.arange(n + 1)  # each vertex's component, named by one of its vertices
    picked: list[int] = []
    batch, rest = _lightest(w, None, k)
    while True:
        scan, lo, run = _scan_order(w, batch), 0, 2 * n
        while lo < len(scan) and len(picked) < need:
            _boruvka(comp, scan[lo:lo + run], u_arr, v_arr, need, picked)
            lo, run = lo + run, 2 * run
        if len(picked) == need or rest is None:
            break
        rest = rest[comp[u_arr[rest]] != comp[v_arr[rest]]]
        if not len(rest):
            break
        k *= 2
        batch, rest = _lightest(w, rest, k)
    return picked


def _lightest(w: np.ndarray, idx: np.ndarray | None, k: int):
    """Split the edges ``idx`` (None: all) into those no heavier than the
    k-th lightest of them and the others (None when there are none).

    A NaN k-th weight puts every edge in the first part, since all NaNs are
    tied with each other.
    """
    wr = w if idx is None else w[idx]
    if k < len(wr):
        part = np.argpartition(wr, k - 1)
        kth = wr[part[k - 1]]
        if kth == kth:  # not NaN
            if np.count_nonzero(wr <= kth) == k:
                head, tail = part[:k], part[k:]
            else:  # edges tied with the k-th lie on both sides of it
                light = wr <= kth
                head, tail = np.flatnonzero(light), np.flatnonzero(~light)
            if idx is None:
                return head, tail
            return idx[head], idx[tail]
    return (np.arange(len(w)) if idx is None else idx), None


def _scan_order(w: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """The edges ``batch`` in (weight, id) order, NaN last."""
    wb = w[batch]
    order = np.argsort(wb)
    ranked = wb[order]
    if np.isnan(ranked[-1:]).any() or (ranked[1:] == ranked[:-1]).any():
        # only a stable sort of ascending ids puts tied (or NaN) weights in
        # id order; a batch without them has one sorted order, which any
        # sort finds
        batch = np.sort(batch)
        order = np.argsort(w[batch], kind="stable")
    return batch[order]


def _boruvka(comp: np.ndarray, scan: np.ndarray, u_arr: np.ndarray,
             v_arr: np.ndarray, need: int, picked: list[int]) -> None:
    """Contract the edges ``scan`` (0-based, in rank order) into ``comp``
    by Borůvka rounds and append Kruskal's picks among them to ``picked``
    as 1-based ids, stopping once it holds ``need``.

    A round gives each component the lowest-ranked edge that leaves it (an
    ``np.minimum.at`` over positions in ``scan``). By the cut property that
    edge is in the unique MST of the batch on top of the components so far,
    which is what Kruskal picks from it. Each component then hooks onto the
    far end of its edge; two components that picked the same edge form the
    only cycles, and the lower-named of each pair becomes the root. Pointer
    jumping flattens the hooks. Edges inside a component are dead: they are
    moved to the unused label 0, and dropped once they are the majority.
    """
    size = len(comp)
    cu, cv = comp[u_arr[scan]], comp[v_arr[scan]]
    while len(picked) < need:
        live = cu != cv
        alive = np.count_nonzero(live)
        if not alive:
            return
        if 2 * alive < len(cu):
            cu, cv, scan = cu[live], cv[live], scan[live]
        else:
            cu *= live
            cv *= live
        r = len(cu)
        pos = np.arange(r)
        best = np.full(size, r)
        np.minimum.at(best, cu, pos)
        np.minimum.at(best, cv, pos)
        best[0] = r  # label 0 holds the dead edges
        roots = np.flatnonzero(best < r)
        e = best[roots]
        far = cu[e] + cv[e] - roots
        hook = np.arange(size)
        hook[roots] = far
        mutual = hook[far] == roots
        lower = roots < far
        picked.extend((scan[e[~mutual | lower]] + 1).tolist())
        pairs = roots[mutual & lower]
        hook[pairs] = pairs
        while True:
            jumped = hook[hook]
            if np.array_equal(jumped, hook):
                break
            hook = jumped
        comp[:] = hook[comp]
        cu, cv = hook[cu], hook[cv]


def is_spanning_tree(g: WeightedGraph, edge_ids) -> bool:
    """True iff edge_ids (1-based) has size n-1 and is acyclic and connected."""
    idx = np.fromiter(set(edge_ids), dtype=np.int64) - 1
    if len(idx) != g.n - 1 or ((idx < 0) | (idx >= g.m)).any():
        return False
    scan = zip(idx.tolist(), g.u_arr[idx].tolist(), g.v_arr[idx].tolist())
    return len(join(g.n, scan, g.n - 1)) == g.n - 1


def tree_weight(g: WeightedGraph, tree) -> float:
    """Total weight of a tree (or any iterable of 1-based edge ids) under g's weights.

    The weights are added in edge-id order, so the float sum depends on the
    set of ids alone, not on the order in which they were inserted.
    """
    ids = np.fromiter(tree.edge_ids if isinstance(tree, SpanningTree) else tree,
                      dtype=np.int64)
    bad = np.flatnonzero((ids < 1) | (ids > g.m))
    if bad.size:
        raise EdgeIndexError(f"edge id {ids[bad[0]]} out of range [1, {g.m}]")
    ids.sort()
    return float(g.weights[ids - 1].sum())

"""Weighted-graph core: validation, the ``join`` scan, the one CSR, exact MST.

Vertices are 1-based (1..n) and edge ids are 1-based (1..m) everywhere in the
public API but one: ``SpanningTree.index``, a released tree's edges as the
0-based indices of the edge arrays, the one representation every producer
builds and every consumer reads. Internal arrays are 0-based.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

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


def _edge_index(edge_ids) -> np.ndarray:
    """The 0-based indices of an iterable of 1-based edge ids, in the order
    given: the one reading of ids passed in by callers. ``EdgeIndexError``
    unless every id equals an integer of at least 1 (``2.0`` and NumPy ints
    are read; ``1.5``, ``0`` and NaN are refused, where a cast to int would
    truncate ``1.5`` to edge 1)."""
    ids = list(edge_ids)
    try:
        idx = np.fromiter(ids, dtype=np.int64, count=len(ids))
    except (TypeError, ValueError, OverflowError) as exc:  # None, NaN, inf, > int64
        raise EdgeIndexError(f"edge ids must be integers: {exc}") from None
    bad = np.flatnonzero((idx < 1) | (idx != np.asarray(ids)))
    if len(bad):
        raise EdgeIndexError(f"edge id {ids[bad[0]]!r} is not an integer of at least 1")
    return idx - 1


@dataclass(frozen=True, init=False, eq=False)
class SpanningTree:
    """A spanning tree's edges (n - 1 of them), held once as ``index``: the
    0-based edge indices, strictly increasing, in a read-only int64 array.

    ``SpanningTree(edge_ids)`` takes any iterable of 1-based ids, repeats
    collapsing as in a set, and raises ``EdgeIndexError`` (a ``ValueError``)
    on an id that is not an integer of at least 1; ``SpanningTree._from_index``
    takes the array itself, as the mechanisms build it, and refuses a
    repeated or unsorted index. ``edge_ids``, the frozenset of 1-based ids,
    is built on first read. Two trees are equal, and hash equal, iff they
    hold the same edges.
    """

    index: np.ndarray
    _ids: frozenset[int] | None = field(default=None, repr=False)  # edge_ids, once read

    def __init__(self, edge_ids=()):
        ids = frozenset(edge_ids)
        index = _edge_index(ids)
        index.sort()
        index.flags.writeable = False
        object.__setattr__(self, "index", index)
        if all(type(e) is int for e in ids):  # else edge_ids is read from index
            object.__setattr__(self, "_ids", ids)

    @classmethod
    def _from_index(cls, index: np.ndarray) -> SpanningTree:
        """The tree of the 0-based ``index`` (int64, strictly increasing),
        which it keeps without a copy and makes read-only."""
        index = np.asarray(index, dtype=np.int64)
        if np.count_nonzero(index[1:] <= index[:-1]):  # faster than any() on small trees
            raise ValueError("edge indices must be strictly increasing")
        index.flags.writeable = False
        tree = cls.__new__(cls)
        object.__setattr__(tree, "index", index)
        return tree

    @property
    def edge_ids(self) -> frozenset[int]:
        """The 1-based edge ids as Python ints, built on first read."""
        if self._ids is None:
            object.__setattr__(self, "_ids", frozenset((self.index + 1).tolist()))
        return self._ids

    def __len__(self):
        return len(self.index)

    def __eq__(self, other):
        if not isinstance(other, SpanningTree):
            return NotImplemented
        return np.array_equal(self.index, other.index)

    def __hash__(self):
        return hash(self.edge_ids)


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
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_csr`` of all m edges, built on first use. Read-only."""
        csr = _csr(self.n, self.u_arr, self.v_arr)
        for arr in csr:
            arr.flags.writeable = False
        return csr

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
        """The lazy reveal's first windows, ln T with its weight buckets'
        envelopes (or None where the solve failed), keyed by (noise scale,
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


def _csr(n: int, u_arr: np.ndarray,
         v_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges (u_arr[i], v_arr[i]) over vertices 1..n as an n x n CSR
    matrix, vertex v being row and column v - 1: ``(indptr, cols, slots)``.

    Each edge is an entry in both its endpoints' rows, so a parallel edge
    is a duplicate entry. Row x - 1 holds the entries
    ``indptr[x - 1]:indptr[x]``, the edges with u_arr[i] = x and then those
    with v_arr[i] = x, each in increasing i: ``cols`` holds the 0-based far
    end and ``slots`` the (intp) index i of each. ``indptr`` and ``cols``
    are int32, as scipy takes them: it would check and convert int64.
    """
    ends = np.concatenate([u_arr, v_arr])
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(ends, minlength=n + 1)[1:], out=indptr[1:])
    # numpy's stable sort of 16-bit keys is a radix sort, 6x faster
    order = np.argsort(ends.astype(np.uint16) if n < 1 << 16 else ends, kind="stable")
    cols = (np.concatenate([v_arr, u_arr])[order] - 1).astype(np.int32)
    return indptr, cols, order % len(u_arr)


def _connected(n, u_arr, v_arr) -> bool:
    """True iff the edges (u_arr[i], v_arr[i]) connect all of vertices 1..n.

    ``kruskal_mst``'s Borůvka engine under the edge ids as ranks: the edges
    connect the vertices iff that engine picks n - 1 of them, a spanning
    tree. Every ranking picks a spanning forest of the same components, so
    the ids serve, and the check needs no weights and no scipy.
    """
    if len(u_arr) < n - 1:  # answered before the O(n) labels: a file may declare any n
        return False
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
    chosen.sort()  # a fresh array, so sorted in place
    return SpanningTree._from_index(chosen)


def _kruskal_picks(n: int, u_arr: np.ndarray, v_arr: np.ndarray, w: np.ndarray,
                   need: int) -> np.ndarray:
    """The 0-based indices of Kruskal's picks under the (w, index) ranks
    among the edges (u_arr[i], v_arr[i]) over vertices 1..n, stopping at
    ``need``, as an int64 array: the branch choice of ``kruskal_mst``, on
    any set of edges."""
    k = max(1, math.ceil(n * math.log(n)))
    if len(w) <= SCAN_MAX_EDGES and min(k, len(w)) <= SCAN_MAX_STEPS:
        scan = itertools.chain.from_iterable(
            _triples(u_arr, v_arr, _scan_order(w, np.arange(len(w))), k))
        return np.array(join(n, scan, need), dtype=np.int64)
    return _boruvka_batches(n, u_arr, v_arr, w, k, need)


def _triples(u_arr: np.ndarray, v_arr: np.ndarray, order: np.ndarray, k: int):
    """Runs of (index, u, v) along ``order``, k, 2k, 4k, ... edges
    long, so that a scan that stops early converts few edges to Python ints."""
    lo = 0
    while lo < len(order):
        run = order[lo:lo + k]
        yield zip(run.tolist(), u_arr[run].tolist(), v_arr[run].tolist())
        lo, k = lo + k, 2 * k


def _boruvka_batches(n: int, u_arr: np.ndarray, v_arr: np.ndarray,
                     w: np.ndarray, k: int, need: int) -> np.ndarray:
    """The 0-based indices of Kruskal's picks on the edges (u_arr[i], v_arr[i])
    over vertices 1..n, stopping at ``need``, in the order the Borůvka
    rounds find them, found batch by batch with array work only, as one
    int64 array.

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
    picked: list[np.ndarray] = []  # each round's picks
    count = 0
    batch, rest = _lightest(w, None, k)
    while True:
        scan, lo, run = _scan_order(w, batch), 0, 2 * n
        while lo < len(scan) and count < need:
            count += _boruvka(comp, scan[lo:lo + run], u_arr, v_arr, need - count, picked)
            lo, run = lo + run, 2 * run
        if count == need or rest is None:
            break
        rest = rest[comp[u_arr[rest]] != comp[v_arr[rest]]]
        if not len(rest):
            break
        k *= 2
        batch, rest = _lightest(w, rest, k)
    return np.concatenate(picked) if picked else np.zeros(0, dtype=np.int64)


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
             v_arr: np.ndarray, need: int, picked: list[np.ndarray]) -> int:
    """Contract the edges ``scan`` (0-based, in rank order) into ``comp``
    by Borůvka rounds and append Kruskal's picks among them to ``picked``,
    one array a round, stopping once it has picked ``need``; return
    how many it picked.

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
    count = 0
    while count < need:
        live = cu != cv
        alive = np.count_nonzero(live)
        if not alive:
            break
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
        picked.append(scan[e[~mutual | lower]])
        count += len(picked[-1])
        pairs = roots[mutual & lower]
        hook[pairs] = pairs
        while True:
            jumped = hook[hook]
            if np.array_equal(jumped, hook):
                break
            hook = jumped
        comp[:] = hook[comp]
        cu, cv = hook[cu], hook[cv]
    return count


def is_spanning_tree(g: WeightedGraph, edge_ids) -> bool:
    """True iff edge_ids (a ``SpanningTree``, or any iterable of 1-based
    ids) has size n-1 and is acyclic and connected; a repeated id closes a
    cycle, and an id that is not an integer in 1..m makes it False."""
    if isinstance(edge_ids, SpanningTree):
        idx = edge_ids.index
    else:
        try:
            idx = _edge_index(edge_ids)
        except EdgeIndexError:
            return False
    if len(idx) != g.n - 1 or ((idx < 0) | (idx >= g.m)).any():
        return False
    scan = zip(idx.tolist(), g.u_arr[idx].tolist(), g.v_arr[idx].tolist())
    return len(join(g.n, scan, g.n - 1)) == g.n - 1


def tree_weight(g: WeightedGraph, tree) -> float:
    """Total weight of a tree (or any iterable of 1-based edge ids) under g's weights.

    The weights are added in edge-id order, so the float sum depends on the
    set of ids alone, not on the order in which they were inserted.
    """
    return float(g.weights[_sorted_index(tree, g.m)].sum())


def _sorted_index(tree, m: int) -> np.ndarray:
    """The 0-based indices of a tree's edges (its ``index``, or those of any
    iterable of 1-based edge ids), in increasing order; ``EdgeIndexError``
    if an id is not an integer in 1..m. A tree's own array is returned,
    read-only."""
    if isinstance(tree, SpanningTree):
        idx = tree.index
    else:
        idx = _edge_index(tree)
        idx.sort()
    if len(idx) and (idx[0] < 0 or idx[-1] >= m):
        raise EdgeIndexError(f"edge id {idx[0] + 1 if idx[0] < 0 else idx[-1] + 1} "
                             f"out of range [1, {m}]")
    return idx

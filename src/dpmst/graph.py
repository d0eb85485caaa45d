"""Weighted-graph core: validation, union-find with member lists, exact MST.

Vertices are 1-based (1..n) and edge ids are 1-based (1..m) everywhere in the
public API; internal arrays are 0-based.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


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

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_ids))

    def __len__(self):
        return len(self.edge_ids)


class DisjointSets:
    """Union-find over vertices 1..n with per-component member lists.

    Union is by size; the smaller component's member list is appended to the
    larger one's, so scanning "the smaller side" (the caller's job) touches
    each vertex O(log n) times over a full run.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one vertex, got {n}")
        self.n = n
        self._parent = list(range(n + 1))
        self._size = [1] * (n + 1)
        self._members: list[list[int]] = [[v] for v in range(n + 1)]

    def _check_vertex(self, v: int):
        if not 1 <= v <= self.n:
            raise EndpointError(f"vertex {v} out of range [1, {self.n}]")

    def find(self, v: int) -> int:
        parent = self._parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def merge(self, u: int, v: int) -> bool:
        """Merge the components of u and v; False if already merged."""
        self._check_vertex(u)
        self._check_vertex(v)
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self._size[ru] < self._size[rv]:
            ru, rv = rv, ru
        # ru is the larger root; rv's members fold into it
        self._parent[rv] = ru
        self._size[ru] += self._size[rv]
        self._members[ru].extend(self._members[rv])
        self._members[rv] = []
        return True

    def size(self, v: int) -> int:
        self._check_vertex(v)
        return self._size[self.find(v)]

    def members(self, v: int) -> list[int]:
        """Live view of v's component member list; copy before mutating the structure."""
        self._check_vertex(v)
        return self._members[self.find(v)]

    def components(self) -> list[list[int]]:
        return [sorted(self._members[r]) for r in range(1, self.n + 1)
                if self._parent[r] == r]


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
        self._incident = None

    @property
    def m(self) -> int:
        return len(self.u_arr)

    @functools.cached_property
    def edges(self) -> list[tuple[int, int]]:
        """(u, v) per 0-based edge index, built on first use: paths that read
        only ``u_arr``/``v_arr`` never hold the m tuples."""
        return list(zip(self.u_arr.tolist(), self.v_arr.tolist()))

    @property
    def incident(self) -> list[list[int]]:
        """0-based edge indices incident to each vertex (index 0 unused)."""
        if self._incident is None:
            inc: list[list[int]] = [[] for _ in range(self.n + 1)]
            for i, (u, v) in enumerate(self.edges):
                inc[u].append(i)
                inc[v].append(i)
            self._incident = inc
        return self._incident

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m}, delta_inf={self.delta_inf})"


def _connected(n, u_arr, v_arr) -> bool:
    """True iff the edges (u_arr[i], v_arr[i]) connect all of vertices 1..n."""
    # vertex v is matrix node v - 1, so no isolated node 0 adds a component
    adj = coo_matrix((np.ones(len(u_arr)), (u_arr - 1, v_arr - 1)), shape=(n, n))
    return connected_components(adj, directed=False, return_labels=False) == 1


def build_graph(n, edges, weights, delta_inf: float = 1.0) -> WeightedGraph:
    """Validate and construct a WeightedGraph; see the error classes above."""
    return WeightedGraph(n, edges, weights, delta_inf)


def kruskal_mst(g: WeightedGraph, weights=None) -> SpanningTree:
    """Exact MST for the given weights (default: the graph's own).

    Edges are scanned in (weight, edge id) order, so ties break toward the
    lowest edge id; NaN weights come last. Callers routinely pass noisy weight
    vectors distinct from ``g.weights``, which may hold -inf.

    This is filter-Kruskal (Osipov, Sanders & Singler, ALENEX 2009). With
    k = max(4(n-1), 32*isqrt(m)), only the edges no heavier than the k-th
    smallest weight are sorted and scanned first; if those do not span, the
    next 2k of the rest follow, then 4k, and so on. Every edge tied with a
    batch's cut-off weight is in that batch, so the scan order, and hence
    the tree, is that of one stable sort of all m weights. When k >= m the
    whole vector is sorted at once.
    """
    w = g.weights if weights is None else np.asarray(weights, dtype=float)
    if len(w) != g.m:
        raise LengthMismatchError(f"expected {g.m} weights, got {len(w)}")
    need = g.n - 1
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    m = len(w)
    if m <= 4 * need or m <= 32 * math.isqrt(m):
        # k >= m, nothing to filter: one full sort, scanned through g.edges,
        # which on tiny graphs costs less per call than the batched scan
        edges = g.edges
        for e in np.argsort(w, kind="stable").tolist():
            u, v = edges[e]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                chosen.append(e + 1)
                if len(chosen) == need:
                    break
    else:
        batches = _filtered_batches(g, w, max(4 * need, 32 * math.isqrt(m)))
        for e, u, v in itertools.chain.from_iterable(batches):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                chosen.append(e + 1)
                if len(chosen) == need:
                    break
    if len(chosen) != need:
        raise DisconnectedError("graph is not connected")
    return SpanningTree(frozenset(chosen))


def _filtered_batches(g: WeightedGraph, w: np.ndarray, k: int):
    """Successive runs of (edge index, u, v) in (weight, index) order.

    Each run is every not yet yielded edge no heavier than the k-th smallest
    of them, stably sorted; k doubles from run to run, so a scan that stops
    early sorts little, and one that reads every edge costs about one full
    sort. NaN weights come last.
    """
    wr, rest = w, None  # rest[i] is the edge index of wr[i]; None while wr is w
    while True:
        if k < len(wr):
            head = wr <= np.partition(wr, k - 1)[k - 1]
        else:
            head = np.ones(len(wr), dtype=bool)
        batch = np.flatnonzero(head) if rest is None else rest[head]
        order = batch[np.argsort(w[batch], kind="stable")]
        yield zip(order.tolist(), g.u_arr[order].tolist(), g.v_arr[order].tolist())
        tail = np.flatnonzero(~head)
        if not tail.size:
            return
        rest = tail if rest is None else rest[tail]
        wr, k = w[rest], 2 * k


def is_spanning_tree(g: WeightedGraph, edge_ids) -> bool:
    """True iff edge_ids (1-based) has size n-1 and is acyclic and connected."""
    ids = set(edge_ids)
    if len(ids) != g.n - 1:
        return False
    if any(not (1 <= e <= g.m) for e in ids):
        return False
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in ids:
        u, v = g.edges[e - 1]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def tree_weight(g: WeightedGraph, tree) -> float:
    """Total weight of a tree (or any iterable of 1-based edge ids) under g's weights."""
    ids = np.fromiter(tree.edge_ids if isinstance(tree, SpanningTree) else tree,
                      dtype=np.int64)
    bad = np.flatnonzero((ids < 1) | (ids > g.m))
    if bad.size:
        raise EdgeIndexError(f"edge id {ids[bad[0]]} out of range [1, {g.m}]")
    return float(g.weights[ids - 1].sum())

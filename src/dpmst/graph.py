"""Weighted-graph core: validation, union-find, incidence, exact MST.

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
    """Union-find over vertices 1..n: union by size, path halving.

    The one union-find of the package. ``merge`` reports whether u and v
    were in different components; ``join`` runs that test along a whole
    edge scan, for exact and private Kruskal, the spanning-tree check and
    the exact oracles.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one vertex, got {n}")
        self.n = n
        self._parent = list(range(n + 1))
        self._size = [1] * (n + 1)

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
        self._parent[rv] = ru
        self._size[ru] += self._size[rv]
        return True

    def join(self, edges, need: int) -> list[int]:
        """Merge along ``(e, u, v)`` triples in scan order; return the e of
        each edge that joined two components, stopping after ``need`` of them.

        Unlike ``merge`` there is no per-edge range check: the endpoints come
        from a validated ``WeightedGraph``.
        """
        joined: list[int] = []
        if need < 1:
            return joined
        parent, size = self._parent, self._size
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

    def size(self, v: int) -> int:
        self._check_vertex(v)
        return self._size[self.find(v)]

    def components(self) -> list[list[int]]:
        """Vertex lists of the components, each sorted, ordered by least vertex."""
        groups: dict[int, list[int]] = {}
        for v in range(1, self.n + 1):
            groups.setdefault(self.find(v), []).append(v)
        return list(groups.values())


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
        ends = np.concatenate([self.u_arr, self.v_arr])
        indptr = np.zeros(self.n + 2, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.n + 1), out=indptr[1:])
        edge_ids = np.argsort(ends, kind="stable") % self.m
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
    def mst(self) -> SpanningTree:
        """The exact MST of the graph's own weights, ``kruskal_mst(self)``,
        computed on first use."""
        return kruskal_mst(self)

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
    need, m = g.n - 1, len(w)
    k = max(4 * need, 32 * math.isqrt(m))
    if k >= m:
        # nothing to filter: one full sort, scanned as one batch
        order = np.argsort(w, kind="stable")
        scan = zip((order + 1).tolist(), g.u_arr[order].tolist(), g.v_arr[order].tolist())
    else:
        scan = itertools.chain.from_iterable(_filtered_batches(g, w, k))
    chosen = DisjointSets(g.n).join(scan, need)
    if len(chosen) != need:
        raise DisconnectedError("graph is not connected")
    return SpanningTree(frozenset(chosen))


def _filtered_batches(g: WeightedGraph, w: np.ndarray, k: int):
    """Successive runs of (edge id, u, v) in (weight, id) order.

    Each run is every not yet yielded edge no heavier than the k-th smallest
    of them, in (weight, id) order; k doubles from run to run, so a scan that stops
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
        wb = w[batch]
        order = np.argsort(wb)
        ranked = wb[order]
        if np.isnan(ranked[-1:]).any() or (ranked[1:] == ranked[:-1]).any():
            # only a stable sort puts tied (or NaN) weights in id order; a
            # batch without them has one sorted order, which any sort finds
            order = np.argsort(wb, kind="stable")
        order = batch[order]
        yield zip((order + 1).tolist(), g.u_arr[order].tolist(), g.v_arr[order].tolist())
        tail = np.flatnonzero(~head)
        if not tail.size:
            return
        rest = tail if rest is None else rest[tail]
        wr, k = w[rest], 2 * k


def is_spanning_tree(g: WeightedGraph, edge_ids) -> bool:
    """True iff edge_ids (1-based) has size n-1 and is acyclic and connected."""
    idx = np.fromiter(set(edge_ids), dtype=np.int64) - 1
    if len(idx) != g.n - 1 or ((idx < 0) | (idx >= g.m)).any():
        return False
    scan = zip(idx.tolist(), g.u_arr[idx].tolist(), g.v_arr[idx].tolist())
    return len(DisjointSets(g.n).join(scan, g.n - 1)) == g.n - 1


def tree_weight(g: WeightedGraph, tree) -> float:
    """Total weight of a tree (or any iterable of 1-based edge ids) under g's weights."""
    ids = np.fromiter(tree.edge_ids if isinstance(tree, SpanningTree) else tree,
                      dtype=np.int64)
    bad = np.flatnonzero((ids < 1) | (ids > g.m))
    if bad.size:
        raise EdgeIndexError(f"edge id {ids[bad[0]]} out of range [1, {g.m}]")
    return float(g.weights[ids - 1].sum())

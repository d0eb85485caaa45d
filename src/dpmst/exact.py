"""Exact small-instance ground truth: brute-force MST, spanning-tree enumeration,
the exact output distribution of proportional sampling with candidate removal,
the exact private-Kruskal and PAMST (Prim-cut) tree distributions, one DP over
edge masks, and the chi-square comparator the statistical suites share.

A distribution is a plain dict from outcome to exact probability, the shape
a tally of outcomes already has: a tree distribution is keyed by frozensets
of 1-based edge ids, a selection distribution by tuples of 0-based indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import fsum, inf

import numpy as np

from .graph import SpanningTree, WeightedGraph, join

MAX_ENUM_VERTICES = 10
MAX_ITEMS = 8
MAX_DEPTH = 6
MAX_EDGES = 16  # the join table has 2^m rows of m entries


class SizeGuardError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


def enumerate_spanning_trees(g: WeightedGraph) -> list[SpanningTree]:
    """All spanning trees by exhaustive (n-1)-subset filtering; n <= 10 only."""
    if g.n > MAX_ENUM_VERTICES:
        raise SizeGuardError(f"enumeration limited to n <= {MAX_ENUM_VERTICES}, got {g.n}")
    need = g.n - 1
    u, v = g.u_arr.tolist(), g.v_arr.tolist()
    out = []
    for combo in combinations(range(1, g.m + 1), need):
        scan = ((e, u[e - 1], v[e - 1]) for e in combo)
        if len(join(g.n, scan, need)) == need:
            out.append(SpanningTree(combo))
    return out


def brute_force_mst(g: WeightedGraph, weights=None) -> SpanningTree:
    """Minimum tree over the full enumeration, tie-broken like kruskal_mst.

    The greedy (Kruskal) basis of a matroid under the total order
    (weight, edge id) is the basis whose sorted element sequence is
    lexicographically minimal, so that sequence is the comparison key here.
    """
    w = g.weights if weights is None else np.asarray(weights, dtype=float)

    def key(t: SpanningTree):
        return sorted((w[e - 1], e) for e in t.edge_ids)

    return min(enumerate_spanning_trees(g), key=key)


def cycle_rule(g: WeightedGraph):
    """Removal rule for spanning-tree sampling over 0-based edge indices.

    Given the selected prefix (a tuple), returns every unselected edge whose
    endpoints the prefix already connects: the edges j that ``join`` over
    the prefix and then j does not accept. The rule is a pure function of
    the prefix, so each rule caches its answers; callers must not mutate
    the returned list.
    """
    u, v = g.u_arr.tolist(), g.v_arr.tolist()

    @lru_cache(maxsize=1 << 16)
    def rule(selected):
        prefix = [(e, u[e], v[e]) for e in selected]
        need = len(selected) + 1
        return [j for j in range(g.m) if j not in selected
                and j not in join(g.n, prefix + [(j, u[j], v[j])], need)]

    return rule


def exact_selection_distribution(weights, k: int, remove_rule=None) -> dict[tuple, float]:
    """Exact distribution over ordered selections of proportional sampling
    with adaptive removal.

    Each sequence's probability is the product of per-step conditional
    probabilities s(j_i) / sum_{j in C_i} s(j), enumerated depth-first.
    Outcomes are tuples of 0-based item indices; sequences shorter than k
    occur when the candidate pool empties early.
    """
    weights = [float(w) for w in weights]
    m = len(weights)
    if m > MAX_ITEMS or k > MAX_DEPTH:
        raise SizeGuardError(
            f"enumeration limited to {MAX_ITEMS} items and depth {MAX_DEPTH}")
    if m == 0 or k < 1:
        raise ValueError("need at least one item and k >= 1")
    if not all(0 < w < inf for w in weights):  # also false for NaN
        raise ValueError("all weights must be positive and finite")
    out: dict[tuple, float] = {}

    def visit(selected: tuple, alive: tuple, prob: float):
        if len(selected) == k or not alive:
            out[selected] = out.get(selected, 0.0) + prob
            return
        total = fsum(weights[j] for j in alive)
        for j in alive:
            nxt = selected + (j,)
            dead = {j}
            if remove_rule is not None:
                dead.update(remove_rule(nxt))
            visit(nxt, tuple(x for x in alive if x not in dead),
                  prob * (weights[j] / total))

    visit((), tuple(range(m)), 1.0)
    return out


def join_table(g: WeightedGraph) -> np.ndarray:
    """Kruskal's acceptance test on g (m <= ``MAX_EDGES``) as a table:
    ``joins[A, e]`` is 1 << e if edge e joins two components of the
    subgraph with edge mask A, else 0. A may be any mask, cycles included:
    a forest's gives a scan step, ``A |= joins[A, e]``, and the mask of all
    edges ranked before e gives the scan's verdict on e.

    The component labels are built one edge bit at a time: the masks in
    [2^b, 2^(b+1)) are those in [0, 2^b) plus edge b, whose merge relabels
    v_b's component with u_b's label, and changes nothing if they are one.
    """
    m = g.m
    if m > MAX_EDGES:
        raise SizeGuardError(f"tables over edge masks need m <= {MAX_EDGES}, got {m}")
    u, v = g.u_arr, g.v_arr
    comp = np.empty((1 << m, g.n + 1), dtype=np.int8)  # n <= m + 1 = 17
    comp[0] = np.arange(g.n + 1)
    for b in range(m):
        low = comp[:1 << b]
        cu, cv = low[:, u[b], None], low[:, v[b], None]
        comp[1 << b:2 << b] = np.where(low == cv, cu, low)
    return (comp[:, u] != comp[:, v]).astype(np.intp) << np.arange(m)


def by_edge_set(table: np.ndarray, masks: np.ndarray) -> dict[frozenset, object]:
    """The entries of ``table``, indexed by edge mask, at ``masks``, keyed by
    each mask's set of 1-based edge ids."""
    m = len(table).bit_length() - 1
    return {frozenset(e + 1 for e in range(m) if mask >> e & 1): x
            for mask, x in zip(masks.tolist(), table[masks].tolist())}


def _tree_dp(g: WeightedGraph, eps_prime: float, delta_inf: float,
             candidates) -> dict[frozenset, float]:
    """The tree distribution of n-1 steps that each pick one edge allowed by
    ``candidates`` with probability proportional to
    s_e = exp(-eps' * w_e / (2 * delta_inf)).

    ``candidates`` maps an array of accepted-edge masks A to a boolean
    (len(A), m) array and must depend on A alone, so that
    P[A | 1 << e] += P[A] * s_e / (sum of s_f over A's candidates f), one
    popcount layer at a time. Each step shifts by its lightest candidate's
    weight, so it has a term exp(0) = 1 and its total cannot underflow to
    0. The support is every mask reached, even at an underflowed P.
    """
    if not 0 < eps_prime < inf or not 0 < delta_inf < inf:
        raise ValueError("eps_prime and delta_inf must be positive and finite")
    if g.m > MAX_EDGES:
        raise SizeGuardError(f"tables over edge masks need m <= {MAX_EDGES}, got {g.m}")
    coef = eps_prime / (2.0 * delta_inf)
    front, prob = np.zeros(1, dtype=np.intp), np.ones(1)
    for _ in range(g.n - 1):
        cand = candidates(front)
        w = np.where(cand, g.weights, inf)
        s = np.exp(-coef * (w - w.min(axis=1, keepdims=True)))
        at, e = np.nonzero(cand)
        share = (s / s.sum(axis=1, keepdims=True))[at, e] * prob[front[at]]
        nxt = front[at] | 1 << e
        prob = np.bincount(nxt, weights=share, minlength=1 << g.m)
        front = np.unique(nxt)
    return by_edge_set(prob, front)


def exact_tree_distribution(g: WeightedGraph, eps_prime: float,
                            delta_inf: float = 1.0, *,
                            joins: np.ndarray | None = None) -> dict[frozenset, float]:
    """Exact private-Kruskal tree distribution, m <= ``MAX_EDGES``: each
    step's candidates are the edges that join two trees of the forest so
    far, read from ``joins`` (g's ``join_table``, built if not given).
    Outcomes are frozensets of 1-based edge ids.
    """
    if joins is None:
        joins = join_table(g)
    return _tree_dp(g, eps_prime, delta_inf, lambda masks: joins[masks] != 0)


def prim_tree_distribution(g: WeightedGraph, eps_prime: float,
                           delta_inf: float = 1.0) -> dict[frozenset, float]:
    """Exact tree distribution of PAMST (Prim growth from vertex 1 with the
    exponential mechanism over each cut), m <= ``MAX_EDGES``. A subtree's
    edge mask fixes its vertex set (vertex 1 and its edges' endpoints) and
    so its cut: the candidates are the edges with one endpoint in that set.
    Outcomes are frozensets of 1-based edge ids.
    """
    u, v = g.u_arr, g.v_arr
    ends = 1 << u | 1 << v  # each edge's endpoints as a vertex bit mask

    def crossing(masks):
        held = (masks[:, None] >> np.arange(g.m)) & 1 == 1
        verts = np.bitwise_or.reduce(np.where(held, ends, 0), axis=1) | 1 << 1
        return (verts[:, None] >> u & 1) != (verts[:, None] >> v & 1)

    return _tree_dp(g, eps_prime, delta_inf, crossing)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    threshold: float
    alpha: float
    passed: bool


def chi_square_gof(counts: dict, exact: dict, alpha: float) -> ChiSquareResult:
    """Pearson goodness-of-fit of observed tallies against an exact
    distribution, both dicts keyed by outcome.

    Bins with expected count below 5 are pooled (the pool folds into the
    smallest regular bin if it stays undersized). Any observed mass on an
    outcome outside the exact support, or of exact probability 0, fails
    outright; a pool whose expected count is 0 is then empty and is dropped.
    The threshold is the upper-alpha chi-square quantile, from
    ``scipy.special.chdtri``, which is imported on the first call so that
    ``import dpmst`` does not load scipy.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n = sum(counts.values())
    if n <= 0:
        raise ValueError("no observations")
    if len(exact) < 2:
        raise ValueError("degenerate support")
    stray = sum(c for outcome, c in counts.items()
                if c > 0 and not exact.get(outcome, 0) > 0)
    if stray:
        statistic, df = inf, len(exact) - 1
    else:
        bins = [(p * n, counts.get(outcome, 0)) for outcome, p in exact.items()]
        small = [(e, o) for e, o in bins if e < 5.0]
        big = [(e, o) for e, o in bins if e >= 5.0]
        pooled = (fsum(e for e, _ in small), sum(o for _, o in small))
        if 0 < pooled[0] < 5.0 and len(big) >= 2:
            i = min(range(len(big)), key=lambda j: big[j][0])
            big[i] = (big[i][0] + pooled[0], big[i][1] + pooled[1])
        elif pooled[0] > 0:
            big.append(pooled)
        if len(big) < 2:
            raise ValueError("fewer than two usable bins after pooling")
        statistic = fsum((o - e) ** 2 / e for e, o in big)
        df = len(big) - 1
    from scipy.special import chdtri

    threshold = float(chdtri(df, alpha))
    return ChiSquareResult(float(statistic), df, threshold, alpha,
                           statistic <= threshold)

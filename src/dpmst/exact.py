"""Exact small-instance ground truth: brute-force MST, spanning-tree enumeration,
the exact output distribution of proportional sampling with candidate removal,
the exact PAMST (Prim-cut) tree distribution, and the chi-square comparator the
statistical suites share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import exp, fsum, inf

import numpy as np
from scipy import stats

from .graph import DisjointSets, SpanningTree, WeightedGraph

MAX_ENUM_VERTICES = 10
MAX_ITEMS = 8
MAX_DEPTH = 6


class SizeGuardError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


class ExactDistribution:
    """Mapping from outcome to exact probability (compensated summation)."""

    def __init__(self, probs: dict):
        self.probs = dict(probs)

    def total(self) -> float:
        return fsum(self.probs.values())

    def support(self) -> list:
        return list(self.probs)

    def collapse(self, key_fn) -> "ExactDistribution":
        """Marginalize by mapping outcomes through key_fn and summing."""
        grouped: dict = {}
        for outcome, p in self.probs.items():
            grouped.setdefault(key_fn(outcome), []).append(p)
        return ExactDistribution({k: fsum(v) for k, v in grouped.items()})

    def __len__(self):
        return len(self.probs)

    def __getitem__(self, outcome):
        return self.probs[outcome]


def enumerate_spanning_trees(g: WeightedGraph) -> list[SpanningTree]:
    """All spanning trees by exhaustive (n-1)-subset filtering; n <= 10 only."""
    if g.n > MAX_ENUM_VERTICES:
        raise SizeGuardError(f"enumeration limited to n <= {MAX_ENUM_VERTICES}, got {g.n}")
    need = g.n - 1
    u, v = g.u_arr.tolist(), g.v_arr.tolist()
    out = []
    for combo in combinations(range(1, g.m + 1), need):
        scan = ((e, u[e - 1], v[e - 1]) for e in combo)
        if len(DisjointSets(g.n).join(scan, need)) == need:
            out.append(SpanningTree(frozenset(combo)))
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
    endpoints the prefix already connects. The rule is a pure function of
    the prefix, so each rule caches its answers; callers must not mutate
    the returned list.
    """
    u, v = g.u_arr.tolist(), g.v_arr.tolist()

    @lru_cache(maxsize=1 << 16)
    def rule(selected):
        ds = DisjointSets(g.n)
        ds.join(((e, u[e], v[e]) for e in selected), len(selected))
        chosen = set(selected)
        return [j for j in range(g.m)
                if j not in chosen and ds.find(u[j]) == ds.find(v[j])]

    return rule


def exact_selection_distribution(weights, k: int, remove_rule=None) -> ExactDistribution:
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
    return ExactDistribution(out)


def exact_tree_distribution(g: WeightedGraph, eps_prime: float,
                            delta_inf: float = 1.0) -> ExactDistribution:
    """Exact private-MST tree distribution for a small graph.

    Selection weights are exp(-eps' * (w_e - w_min) / (2 * delta_inf)) with the
    cycle removal rule; the common shift cancels in every per-step ratio.
    Outcomes are frozensets of 1-based edge ids.
    """
    if not 0 < eps_prime < inf or not 0 < delta_inf < inf:
        raise ValueError("eps_prime and delta_inf must be positive and finite")
    w = g.weights
    s = np.exp(-eps_prime * (w - w.min()) / (2.0 * delta_inf))
    seqs = exact_selection_distribution(s.tolist(), g.n - 1, cycle_rule(g))
    return seqs.collapse(lambda seq: frozenset(e + 1 for e in seq))


def prim_tree_distribution(g: WeightedGraph, eps_prime: float,
                           delta_inf: float = 1.0) -> ExactDistribution:
    """Exact tree distribution of PAMST (Prim growth from vertex 1 with the
    exponential mechanism over each cut) for a small graph.

    Depth-first over the cut choices: each crossing edge is picked with
    probability exp(-eps' * (w_e - w_cut_min) / (2 * delta_inf)) over the sum
    of these across the cut. The shift is each cut's own minimum, so every
    cut has a term exp(0) = 1; a shift by the global minimum can leave a cut
    whose terms all underflow to 0. Each tree's path probabilities are summed
    with ``fsum``. Outcomes are frozensets of 1-based edge ids.

    The paths number the product of the n-1 cut sizes (14,400 on K6), so
    this is for graphs of a few vertices even below the size guard.
    """
    if g.n > MAX_ENUM_VERTICES:
        raise SizeGuardError(f"enumeration limited to n <= {MAX_ENUM_VERTICES}, got {g.n}")
    if not 0 < eps_prime < inf or not 0 < delta_inf < inf:
        raise ValueError("eps_prime and delta_inf must be positive and finite")
    coef = eps_prime / (2.0 * delta_inf)
    w = g.weights.tolist()
    ends = list(zip(g.u_arr.tolist(), g.v_arr.tolist()))
    paths: dict[frozenset, list[float]] = {}

    def visit(in_tree: frozenset, chosen: tuple, prob: float):
        if len(in_tree) == g.n:
            paths.setdefault(frozenset(chosen), []).append(prob)
            return
        cut = [e for e, (u, v) in enumerate(ends) if (u in in_tree) != (v in in_tree)]
        low = min(w[e] for e in cut)
        s = [exp(-coef * (w[e] - low)) for e in cut]
        total = fsum(s)
        for e, se in zip(cut, s):
            u, v = ends[e]
            visit(in_tree | {u, v}, chosen + (e + 1,), prob * (se / total))

    visit(frozenset({1}), (), 1.0)
    return ExactDistribution({t: fsum(p) for t, p in paths.items()})


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    threshold: float
    alpha: float
    passed: bool


def chi_square_gof(counts, exact: ExactDistribution, alpha: float,
                   min_expected: float = 5.0) -> ChiSquareResult:
    """Pearson goodness-of-fit of observed tallies against an exact distribution.

    Bins with expected count below ``min_expected`` are pooled (the pool folds
    into the smallest regular bin if it stays undersized). Any observed mass
    outside the exact support fails outright.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n = sum(counts.values())
    if n <= 0:
        raise ValueError("no observations")
    if len(exact.probs) < 2:
        raise ValueError("degenerate support")
    stray = sum(c for outcome, c in counts.items()
                if c > 0 and outcome not in exact.probs)
    df_full = len(exact.probs) - 1
    if stray:
        threshold = float(stats.chi2.ppf(1.0 - alpha, df_full))
        return ChiSquareResult(inf, df_full, threshold, alpha, False)

    bins = [(p * n, counts.get(outcome, 0)) for outcome, p in exact.probs.items()]
    small = [(e, o) for e, o in bins if e < min_expected]
    big = [(e, o) for e, o in bins if e >= min_expected]
    if small:
        pooled = (fsum(e for e, _ in small), sum(o for _, o in small))
        if pooled[0] >= min_expected or len(big) < 2:
            big.append(pooled)
        else:
            i = min(range(len(big)), key=lambda j: big[j][0])
            big[i] = (big[i][0] + pooled[0], big[i][1] + pooled[1])
    if len(big) < 2:
        raise ValueError("fewer than two usable bins after pooling")
    statistic = fsum((o - e) ** 2 / e for e, o in big)
    df = len(big) - 1
    threshold = float(stats.chi2.ppf(1.0 - alpha, df))
    return ChiSquareResult(float(statistic), df, threshold, alpha,
                           statistic <= threshold)

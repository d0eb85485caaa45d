"""The private MST mechanisms.

Six registry ids. ``perturb``, ``onepass`` and ``kruskal`` all run input
perturbation (``input_perturbation_mst``), which samples the tree
distribution of Kruskal with the exponential mechanism in every round. The
baselines are ``sealfon-laplace`` and ``sealfon-gauss`` (input privatization)
and ``pamst`` (Prim-based): the shortest-path tree from vertex 1 under
lengths exp(eps' / (2 * delta_inf) * w~_e) of ``perturb``'s vector w~.

The four perturbation ids share one noise body, ``_perturbed_tree``, and
differ only in its tree rule, ``_kruskal_tree`` or ``_prim_tree``. On large
graphs it draws only the noise the rule's tree can reach, and keeps a
``NoisyWeights`` record of the revealed ids, their noisy weights and one
clamp for every other edge.

Every mechanism takes (graph, budget, stream) and returns a MechanismResult;
none reads system entropy.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .accounting import PrivacyBudget, gaussian_sigma_for_input_privatization
from .graph import SpanningTree, WeightedGraph, _csr, _kruskal_picks, kruskal_mst
from .rng import RngStream


class UnknownMechanismError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class NoisyWeights:
    """Per-edge noisy weights as a mechanism drew them.

    ``values[i]`` is the noisy weight of the 0-based edge ``ids[i]``, the
    ids increasing, and each other edge of the ``m`` sits at ``clamp``,
    above every value. A lazy call of ``_perturbed_tree`` whose rule gives
    its tree from the first window keeps this compact record of the edges
    it revealed. The full draw is the record of all m ids: ``ids`` is None,
    ``values`` the m-vector, and there is no clamp.
    """

    m: int
    values: np.ndarray
    ids: np.ndarray | None = None
    clamp: float | None = None

    def at(self, edges: np.ndarray) -> np.ndarray:
        """The noisy weights of the 0-based ``edges``, in increasing order:
        each found among ``ids`` by ``searchsorted``, or the clamp."""
        if self.ids is None:
            return self.values[edges]
        pos = np.searchsorted(self.ids, edges)
        found = self.ids.take(pos, mode="clip") == edges
        return np.where(found, self.values.take(pos, mode="clip"), self.clamp)

    def total(self, edges: np.ndarray, mask: np.ndarray) -> float:
        """The sum of the noisy weights of the 0-based ``edges``, in
        increasing order. ``mask``, their m-long indicator, lets a compact
        record read it at its own ids, O(k) for k recorded edges, instead of
        finding each edge by ``at``, O(n log k) for n edges."""
        if self.ids is None:
            return float(self.at(edges).sum())
        inside = mask[self.ids]
        found = np.count_nonzero(inside)
        total = float(self.values[inside].sum())
        return total + (len(edges) - found) * self.clamp if found < len(edges) else total


@dataclass(init=False)
class MechanismResult:
    """Output of one mechanism invocation.

    ``tree`` is the released ``SpanningTree``, built from its sorted index
    array; a caller reads ``tree.index`` (0-based) or ``tree.edge_ids``.
    ``noise`` is the mechanism's per-edge noisy weights, a ``NoisyWeights``
    record, when it computed them; ``noisy_weights``, an m-vector, builds the
    full record. The noise is a private release only when
    ``noisy_weights_released`` is True (the input-privatization baselines);
    for the perturbation mechanisms it is calibrated to privatize the tree
    alone and is kept purely as a diagnostic. Input perturbation's tree is
    an MST of the m-vector its record stands for, compact or full, and the
    true tree's clamped sum is at most its full-noise sum, so a
    noisy-minimality check against it is no weaker.
    """

    tree: SpanningTree
    noise: NoisyWeights | None
    noisy_weights_released: bool
    wall_time_ns: int
    ops: Mapping

    def __init__(self, tree: SpanningTree, noisy_weights: np.ndarray | None = None,
                 noisy_weights_released: bool = False, wall_time_ns: int = 0,
                 ops: Mapping | None = None, noise: NoisyWeights | None = None):
        if noisy_weights is not None:
            noise = NoisyWeights(len(noisy_weights), noisy_weights)
        self.tree, self.noise = tree, noise
        self.noisy_weights_released, self.wall_time_ns = noisy_weights_released, wall_time_ns
        self.ops = {} if ops is None else ops


def perturb_weights(g: WeightedGraph, eps_prime: float, delta_inf: float,
                    stream: RngStream, rows: int | None = None) -> np.ndarray:
    """Per-edge noisy weights w_e + delta_inf * (2/eps') * ln(Exp(1)).

    With ``rows`` set, a (rows, m) block whose row t holds exactly the
    vector that the t-th of ``rows`` successive calls would return: the
    stream fills the block in row-major order, one draw per entry.
    """
    scale = _noise_scale(eps_prime, delta_inf)
    noisy = stream.ln_exponential(size=g.m if rows is None else (rows, g.m))
    noisy *= scale
    noisy += g.weights
    return noisy


def _noise_scale(eps_prime: float, delta_inf: float) -> float:
    """b = delta_inf * (2/eps'), the multiplier of ``perturb_weights``' ln(Exp(1))."""
    if not 0 < eps_prime < math.inf or not 0 < delta_inf < math.inf:
        raise ValueError("eps_prime and delta_inf must be positive and finite")
    return delta_inf * (2.0 / eps_prime)


# input_perturbation_mst and pamst draw all m noisy weights unless the graph
# has at least LAZY_MIN_EDGES edges and LAZY_MIN_DENSITY * n ln n of them;
# then they reveal those of a first window. The ladder (scripts/lazy_ladder.py:
# median ms per call of the lazy reveal over the full draw's, 80 interleaved
# calls a side, two runs, shared 2-core x86 machine), lowest to highest over
# perturb, kruskal and pamst at eps = 1, delta_inf = 1 and at rho = 1,
# delta_inf = 0.1, as (m, m / n ln n): K128 (8,128; 13) 0.89-1.29, K181
# (16,290; 17) 0.83-1.22, K200 (19,900; 19) 0.77-1.03, K221 (24,310; 20)
# 0.72-1.02, K230 (26,335; 21) 0.69-1.02, K256 (32,640; 23) 0.68-0.99,
# ER(362, 0.5) (32,568; 15) 0.71-0.99, ER(512, 0.3) (39,005; 12) 0.79-1.09,
# ER(512, 0.5) (65,238; 20) 0.56-0.84, ER(1024, 0.2) (104,802; 15)
# 0.56-0.75, ER(2048, 0.1) (210,009; 13) 0.53-0.66. Below the density half:
# ER(1024, 0.1) (52,644; 7.4) 0.90-1.01, ER(1024, 0.05) (26,261; 3.7)
# 1.08-1.40, ER(2048, 0.02) (42,420; 2.7) 1.08-1.55, ER(4096, 0.01)
# (83,687; 2.5) 1.06-1.54. From K200 to ER(512, 0.3) the top of each range
# is perturb or kruskal at eps = 1, delta_inf = 1, which run about even with
# the full draw there (0.93-1.09); pamst, and every id at rho = 1, read
# below 1. The rule stays where it is, as moving it moves the streams of the
# graphs it crosses. No benchmark workload sits near either edge of the
# rule; both rest on this ladder.
LAZY_MIN_EDGES, LAZY_MIN_DENSITY = 24576, 10.0
# Kruskal's first window expects (n/2)(ln n + LAZY_GUMBEL) revealed edges: a
# random order of edges connects the graph after about (n/2)(ln n + G) of
# them, G Gumbel (Erdős & Rényi, 1960), and 4.6 is G's 99th percentile. That
# is 0.80 n ln n on ER(2048, 0.1); on K256 at eps = 1, delta_inf = 1, 5 of
# 600 calls extended it, against 22 at 0.8 n ln n. pamst's expects
# PAMST_WINDOW * n ln n, as its tree also needs every distance below T: on
# K256 at rho = 0.01, 1.0 n ln n extended 87 of 150 calls and 1.25 n ln n 13.
# Each expectation is read on every LAZY_STRIDE-th edge in weight order.
# Weight buckets of min(LAZY_BUCKET, the power of two at or above n ln n)
# edges share one envelope rate.
LAZY_GUMBEL, PAMST_WINDOW = 4.6, 1.5
LAZY_BUCKET, LAZY_STRIDE = 16384, 512


def input_perturbation_mst(g: WeightedGraph, budget: PrivacyBudget,
                           stream: RngStream) -> MechanismResult:
    """Perturb every weight once, then run any exact MST algorithm.

    Only the edge set is the private release; the noisy weights are far too
    lightly noised to be released themselves and are kept as a diagnostic.

    It is private Kruskal (``kruskal``): each of the n-1 rounds picks an
    edge that closes no cycle with probability proportional to
    exp(-eps' * w_e / (2 * delta_inf)) among such edges (McSherry & Talwar,
    FOCS 2007). The -ln(Exp(1)) noise is a Gumbel race: the lightest noisy
    edge that closes no cycle wins each round with the mechanism's
    probability, and the race's leftover clocks are memoryless. It is also
    the one-pass private Kruskal (``onepass``): one race score Exp(1) /
    exp(-eps' * w_e / (2*delta_inf)) per edge, then plain Kruskal in score
    order. ln(score) = (eps'/(2*delta_inf)) * (w_e + (2*delta_inf/eps') *
    ln(Exp(1))) - const, a positive affine map of the perturbed weight, so
    the tree is the same for every draw.

    ``_perturbed_tree`` draws the noise, with ``_kruskal_tree`` as its
    rule; ``noise`` is the record of what it drew.

    ``ops`` describes Kruskal's scan of the noisy weights w~ and is counted
    from ``noise`` when first read (``_ScanOps``), so no call pays for it.
    With (w*, e*) the largest (w~, id) over the released tree's edges, the
    scan reads every edge ranked at or before (w*, e*) under (w~, id) and
    no other. ``ops["edge_checks"]`` is 1 for each of those edges and 0
    otherwise; ``ops["draws"]`` is their number, from n-1 to m: the edges
    the scan read, not the noisy weights drawn, as ``pamst``'s ``draws``
    are. By the Gumbel-top-k identity the scan order is weighted sampling
    without replacement, so the count has the distribution of the
    per-round mechanism's draws when cycle-closing edges are deleted only
    once drawn.
    """
    t0 = time.perf_counter_ns()
    eps_prime = budget.per_round(g.n - 1)
    window = _first_window(g, _noise_scale(eps_prime, budget.delta_inf),
                           g.n / 2 * (math.log(g.n) + LAZY_GUMBEL))
    tree, noise, _ = _perturbed_tree(g, eps_prime, budget.delta_inf, stream, window,
                                     _kruskal_tree)
    return MechanismResult(tree=tree, noise=noise, ops=_ScanOps(noise, tree),
                           wall_time_ns=time.perf_counter_ns() - t0)


def _kruskal_tree(g: WeightedGraph, noisy: np.ndarray, scale: float, edges: np.ndarray | None,
                  log_window: float) -> tuple[SpanningTree | None, int]:
    """Kruskal's tree of the noisy weights ``noisy`` of the 0-based
    ``edges`` (increasing), or of all m when ``edges`` is None, and the CSR
    entries read: none. Every other edge's weight is above all of
    ``noisy``, so the scan reaches one only if ``edges`` do not span, and
    the tree is then None. ``scale`` and ``log_window`` are not read."""
    if edges is None:
        return kruskal_mst(g, noisy), 0
    picked = _kruskal_picks(g.n, g.u_arr[edges], g.v_arr[edges], noisy, g.n - 1)
    if len(picked) < g.n - 1:
        return None, 0
    return SpanningTree._from_index(np.sort(edges[picked])), 0


class _ScanOps(Mapping):
    """``input_perturbation_mst``'s ``ops``, ``edge_checks`` and ``draws``,
    counted from its noise record and tree on the first read of either.

    It holds the record and the tree, not the result, so that no reference
    cycle keeps a released result alive. The unrevealed edges of a compact
    record sit at its clamp, above every revealed weight and so above w*:
    the scan reads revealed edges only, and the tree's edges are among them.
    """

    _KEYS = ("edge_checks", "draws")

    def __init__(self, noise: NoisyWeights, tree: SpanningTree):
        self._noise, self._tree, self._ops = noise, tree, None

    def __getitem__(self, key):
        if self._ops is None:
            noise = self._noise
            ids = np.arange(noise.m) if noise.ids is None else noise.ids
            tree = self._tree.index
            tree_noisy = noise.at(tree)
            last = tree_noisy.max()
            e_last = tree[tree_noisy == last][-1]
            scanned = ids[(noise.values < last) | ((noise.values == last) & (ids <= e_last))]
            checks = np.zeros(noise.m, dtype=np.int64)
            checks[scanned] = 1
            self._ops = {"edge_checks": checks, "draws": len(scanned)}
        return self._ops[key]

    def __iter__(self):
        return iter(self._KEYS)

    def __len__(self):
        return len(self._KEYS)

    def __contains__(self, key):
        return key in self._KEYS


class _Window(NamedTuple):
    """A first window T = exp(``log_t``) of the lazy reveal, with its weight
    buckets: runs of ``g.by_weight``, ``bucket`` edges long (``sizes``, the
    last one shorter), and the envelope ``q`` of each, the probability that
    its lightest edge's clock rings by T."""

    log_t: float
    bucket: int
    sizes: np.ndarray
    q: np.ndarray


def _window(g: WeightedGraph, scale: float, log_t: float) -> _Window:
    """The window ln T = ``log_t`` at noise scale b = ``scale``, with
    buckets of min(``LAZY_BUCKET``, the power of two at or above n ln n)
    edges: see ``_reveal``."""
    bucket = min(LAZY_BUCKET, 1 << (max(1, math.ceil(g.n * math.log(g.n))) - 1).bit_length())
    lightest = g.weights[g.by_weight[::bucket]] / scale
    sizes = np.minimum(bucket, g.m - bucket * np.arange(len(lightest)))
    with np.errstate(over="ignore"):  # exp(a_e) that overflows gives q = 1
        q = -np.expm1(-np.exp(log_t - lightest))
    return _Window(log_t, bucket, sizes, q)


def _first_window(g: WeightedGraph, scale: float, target: float) -> _Window | None:
    """The first window: None below the size rule (``LAZY_MIN_EDGES``
    and ``LAZY_MIN_DENSITY``), else the ``_window`` at about the ln T by
    which ``target`` clocks are expected to ring, solved once per graph,
    scale and target and kept in ``g.windows``. The expectation, sum_e 1 -
    exp(-exp(ln T - w_e/b)), is read on every ``LAZY_STRIDE``-th edge of
    ``g.by_weight``. The first guess is the later of two: the T at which
    the rates sum to the target (each term is at most its rate times T),
    and the target's quantile of w/b, less 1, for rates far apart. Each
    step then scales T by target / expected, which keeps the expectation on
    the side of the target where it started and moves it closer. A solve
    that over- or underflows gives None too."""
    if g.m < max(LAZY_MIN_EDGES, LAZY_MIN_DENSITY * g.n * math.log(g.n)):
        return None
    key = (scale, target)
    if key not in g.windows:
        minus_ln_s = g.weights[g.by_weight[LAZY_STRIDE // 2::LAZY_STRIDE]] / scale
        per_stride, low = target / LAZY_STRIDE, minus_ln_s[0]
        with np.errstate(all="ignore"):
            log_t = math.log(per_stride / np.exp(low - minus_ln_s).sum()) + low
            log_t = max(log_t, minus_ln_s[min(int(per_stride), len(minus_ln_s) - 1)] - 1.0)
            for _ in range(4):
                log_t += math.log(per_stride / -np.expm1(-np.exp(log_t - minus_ln_s)).sum())
        g.windows[key] = _window(g, scale, log_t) if math.isfinite(log_t) else None
    return g.windows[key]


def _reveal(g: WeightedGraph, scale: float, stream: RngStream,
            window: _Window) -> tuple[np.ndarray, np.ndarray]:
    """The clocks that ring by T = exp(window.log_t), with their noisy
    weights: ``(rev, noisy_rev)``, the 0-based ids in increasing order and
    w_e + b ln(E_e), b = ``scale``, for each.

    Edge e is an exponential clock X_e = E_e / s_e of rate s_e = exp(-w_e/b),
    and b ln(X_e) is ``perturb_weights``' noisy weight. Clock e rings by T,
    E_e <= s_e T, with probability p_e = 1 - exp(-s_e T), independently of
    the others: ln(s_e T) = a_e = ln T - w_e/b, kept in logs so that no
    rate under- or overflows.

    - The heads among coins of probability q_j, the p_e of the lightest
      edge of weight bucket j (``window.q``), are the candidates.
    - Each candidate draws one envelope clock E = -log1p(-x q_j), x uniform
      (``RngStream.truncated_exponential``): Exp(1) conditioned on
      E <= -ln(1 - q_j), the lightest edge's s T, which is at least s_e T.
      The candidate is kept iff ln E <= a_e, with probability p_e / q_j,
      so edge e is revealed with probability p_e, at a cost of about the
      number of candidates. A kept E is Exp(1) conditioned on E <= s_e T,
      the law of E_e given that clock e rings by T, so it is E_e itself:
      no second draw and no clip.
    """
    # w / b that overflows gives an infinite a_e; x = 0 gives ln E = -inf
    with np.errstate(over="ignore", divide="ignore"):
        heads = stream.coin_heads(window.sizes, window.q)
        cand = g.by_weight[heads]
        ln_e = np.log(stream.truncated_exponential(window.q[heads // window.bucket]))
        w = g.weights[cand]
        kept = np.flatnonzero(ln_e <= window.log_t - w / scale)
    # in id order, so that noisy ties break as in kruskal_mst: each kept
    # (id, position) pair packed in one int64 and sorted, which on
    # ER(2048, 0.1) took a third of the time of an argsort of the ids
    shift = len(cand).bit_length()
    key = np.sort(cand[kept] << shift | kept)
    rev, kept = key >> shift, key & ((1 << shift) - 1)
    return rev, w[kept] + scale * ln_e[kept]


def _extend(g: WeightedGraph, scale: float, stream: RngStream, log_window: float,
            rev: np.ndarray, noisy_rev: np.ndarray) -> np.ndarray:
    """The full noisy vector after ``_reveal``: ``noisy_rev`` on ``rev``,
    and every other edge's clock drawn conditioned on ringing after T. The
    clocks that have not rung are memoryless, so each other E_e is
    s_e T + Exp(1), ln E_e = logaddexp(ln Exp(1), a_e). Edges whose rate
    underflows (p_e = 0) are drawn here, with their exact odds."""
    w, m = g.weights, g.m
    rest = np.ones(m, dtype=bool)
    rest[rev] = False
    rest = np.flatnonzero(rest)
    noisy = np.empty(m)
    noisy[rev] = noisy_rev
    ln_e = np.logaddexp(stream.ln_exponential(size=len(rest)), log_window - w[rest] / scale)
    noisy[rest] = w[rest] + scale * ln_e
    return noisy


def _perturbed_tree(g: WeightedGraph, eps_prime: float, delta_inf: float, stream: RngStream,
                    window: _Window | None, rule) -> tuple[SpanningTree, NoisyWeights, int]:
    """``rule``'s tree of ``perturb_weights``' noisy weights w~ = w + b ln(E),
    b = 2 * delta_inf / eps', drawing only as much of w~ as the tree needs;
    the record of the noise drawn; and the CSR entries ``rule`` read.

    A rule, ``_kruskal_tree`` or ``_prim_tree``, is called as ``rule(g,
    noisy, b, edges, log_window)``: on all m noisy weights with ``edges``
    None it returns its tree; on those of the 0-based ``edges`` alone,
    every other edge's w~ known only to exceed b * log_window, it returns
    the tree only if it is the full vector's whatever those are, else None.

    With ``window`` None (below the size rule of ``_first_window``) w~ is
    ``perturb_weights``' vector, draw for draw. Otherwise w~_e / b is the
    log of an exponential clock of rate exp(-w_e / b), and ``_reveal``
    draws the clocks that ring by T = exp(window.log_t), one uniform per
    candidate edge, whose envelope clock is the edge's own clock when the
    edge is kept: every other w~_e is above b ln T, so above every revealed
    one. If ``rule`` gives the revealed edges' tree, the record holds them
    and one clamp, just above b ln T and every revealed weight, for the
    others, and the tree is ``rule``'s on the m-vector the record stands
    for. Otherwise ``_extend`` draws the other clocks conditioned on
    ringing after T. The tree has the law of ``rule`` on
    ``perturb_weights``' vector either way, but the trees per seed differ
    from the full draw's.
    """
    scale = _noise_scale(eps_prime, delta_inf)
    scans = 0
    if window is None:
        noisy = perturb_weights(g, eps_prime, delta_inf, stream)
    else:
        rev, noisy_rev = _reveal(g, scale, stream, window)
        if len(rev) >= g.n - 1:
            tree, scans = rule(g, noisy_rev, scale, rev, window.log_t)
            if tree is not None:
                clamp = float(np.nextafter(max(scale * window.log_t, noisy_rev.max()), math.inf))
                return tree, NoisyWeights(g.m, noisy_rev, rev, clamp), scans
        noisy = _extend(g, scale, stream, window.log_t, rev, noisy_rev)
    tree, full = rule(g, noisy, scale, None, -math.inf)
    return tree, NoisyWeights(g.m, noisy), scans + full


def sealfon_mst(g: WeightedGraph, budget: PrivacyBudget, stream: RngStream,
                mode: str = "gaussian_zcdp") -> MechanismResult:
    """Input privatization: release the whole noisy weight vector, then exact MST.

    ``laplace_pure`` adds Laplace(m * delta_inf / eps) per edge (pure eps-DP
    for the vector); ``gaussian_zcdp`` calibrates Gaussian noise to the same
    rho-zCDP budget the other mechanisms spend.
    """
    t0 = time.perf_counter_ns()
    if mode == "laplace_pure":
        scale = g.m * budget.delta_inf / budget.epsilon
        noisy = stream.laplace(scale, size=g.m)
    elif mode == "gaussian_zcdp":
        sigma = gaussian_sigma_for_input_privatization(
            budget.rho, g.m, budget.delta_inf)
        noisy = stream.gaussian(sigma, size=g.m)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    noisy += g.weights
    tree = kruskal_mst(g, noisy)
    return MechanismResult(tree=tree, noisy_weights=noisy,
                           noisy_weights_released=True,
                           wall_time_ns=time.perf_counter_ns() - t0)


# pamst goes straight to its exact path when its largest clock would be
# exp(coef * (max - min) of the noisy weights) >= exp(PAMST_MAX_LOG_SPAN):
# the distances Dijkstra adds would overflow, or swamp the light clocks.
PAMST_MAX_LOG_SPAN = 700.0
# It also does so on graphs of at most PAMST_RACE_MAX_N vertices, where the
# race's n-1 rounds cost no more than Dijkstra's fixed cost (mostly scipy's
# input checks). Median us a call of _prim_tree on 300 noisy vectors,
# one-row Dijkstra against the race, interleaved, shared 2-core x86
# machine: K3 73 against 33, K5 71 against 49, K7 72 against 66, K8 70
# against 72, K9 73 against 84, K12 76 against 114, K16 80 against 154.
# They meet at K8, where the two are within the noise.
PAMST_RACE_MAX_N = 8


def pamst(g: WeightedGraph, budget: PrivacyBudget,
          stream: RngStream) -> MechanismResult:
    """Prim-Jarnik growth from vertex 1 with a private selection per cut.

    Each of the n-1 rounds applies the exponential mechanism over the
    cut-crossing edges (probability proportional to
    s_e = exp(-eps' * w_e / (2 * delta_inf))), composing to the same budget
    as the Kruskal-style mechanisms.

    The rounds are one race of exponential clocks. Edge e rings X_e ~
    Exp(s_e) after its first endpoint joins, and the first crossing edge to
    ring joins its far end. The first of independent clocks to ring is e
    with probability s_e / (sum of s over the cut), and the clocks that
    have not rung are memoryless, so every round is the per-cut exponential
    mechanism. Vertex v joins at its distance from vertex 1 under lengths
    X_e, so the released tree is the shortest-path tree. And
    X_e = Exp(1) / s_e = exp(coef * w~_e), coef = eps' / (2 * delta_inf),
    where w~ is ``perturb``'s noisy vector. The vector is not returned
    (``noise`` is None): the tree is not its minimum spanning tree.

    ``_perturbed_tree`` draws w~, with ``_prim_tree`` as its rule.

    ``ops["edge_scans"]`` counts CSR entries read: 2m a full path, 4m
    without a certified Dijkstra tree, plus 2 per revealed edge for the
    lazy path's Dijkstra. ``ops["draws"]`` counts the clocks drawn: m, or
    the revealed ones when the lazy path's tree was certified. That is not
    what the Kruskal ids' ``draws`` count, the edges their scan read.
    """
    t0 = time.perf_counter_ns()
    eps_prime = budget.per_round(g.n - 1)
    window = _first_window(g, _noise_scale(eps_prime, budget.delta_inf),
                           PAMST_WINDOW * g.n * math.log(g.n))
    tree, noise, scans = _perturbed_tree(g, eps_prime, budget.delta_inf, stream, window,
                                         _prim_tree)
    return MechanismResult(tree=tree, wall_time_ns=time.perf_counter_ns() - t0,
                           ops={"edge_scans": scans, "draws": len(noise.values)})


def _prim_tree(g: WeightedGraph, noisy: np.ndarray, scale: float, edges: np.ndarray | None,
               log_window: float) -> tuple[SpanningTree | None, int]:
    """The race's tree under clocks X_e = exp(w~_e / b), w~ = ``noisy`` and
    b = ``scale``, and the CSR entries read. On all m edges (``edges``
    None) it is ``_dijkstra_tree``'s if certified, else ``_prim_race``'s,
    and ``_prim_race``'s alone on at most ``PAMST_RACE_MAX_N`` vertices. On
    the 0-based ``edges`` alone (increasing) it is ``_dijkstra_tree``'s
    over them if the window T = exp(log_window) certifies that it is the
    tree of all m, else None."""
    log_clock = noisy / scale
    if edges is not None:
        tree = _dijkstra_tree(g, log_clock, edges, log_window)
        return (None if tree is None else SpanningTree._from_index(edges[tree])), 2 * len(edges)
    scans = 2 * g.m
    if g.n > PAMST_RACE_MAX_N:
        tree = _dijkstra_tree(g, log_clock)
        if tree is not None:
            return SpanningTree._from_index(np.flatnonzero(tree)), scans
        scans += 2 * g.m
    return SpanningTree._from_index(np.sort(_prim_race(g, log_clock))), scans


def _dijkstra_tree(g: WeightedGraph, log_clock: np.ndarray, edges: np.ndarray | None = None,
                   log_window: float = -math.inf) -> np.ndarray | None:
    """The shortest-path tree from vertex 1 under lengths
    X_e = exp(log_clock_e), as a boolean mask over the edges ``edges``
    (0-based; by default all m), if its certificate holds, else None. Over
    a subset every other edge's clock is above exp(log_window), and the
    certificate also needs ``_below_window``. Clocks that hold a -inf, or
    span ``PAMST_MAX_LOG_SPAN`` or more in logs (counting log_window over a
    subset), are refused before Dijkstra runs.

    One ``scipy.sparse.csgraph.dijkstra`` call runs under lengths
    exp(log_clock_e - lo) >= 1, lo the smallest clock, and
    ``_slack_certificate`` reads its distances. ``_dijkstra_trees`` is the
    same for a block of rows over all m edges, with the same certificate.

    scipy is imported here, on the first call, so that ``import dpmst``
    and every other mechanism run without loading it.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    lo = log_clock.min()
    # false at lo = -inf; over a subset the bound exp(log_window - lo) is finite too
    if not max(log_clock.max(), log_window) < lo + PAMST_MAX_LOG_SPAN:
        return None
    n = g.n
    if edges is None:
        u_arr, v_arr, (indptr, cols, slots) = g.u_arr, g.v_arr, g.adjacency
    else:
        u_arr, v_arr = g.u_arr[edges], g.v_arr[edges]
        indptr, cols, slots = _csr(n, u_arr, v_arr)
    length = np.exp(log_clock - lo)
    t = np.empty(n + 1)  # t[v] for vertex v, so the 1-based endpoints index it
    t[1:] = dijkstra(csr_matrix((length[slots], cols, indptr), shape=(n, n)),
                     indices=0, min_only=True)
    tight, certified = _slack_certificate(t, u_arr, v_arr, length)
    if not certified or edges is not None and not _below_window(t, lo, log_window):
        return None
    return tight


def _dijkstra_trees(g: WeightedGraph, log_clock: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_dijkstra_tree`` of each row of a (rows, m) block, for the bulk
    tally (``harness._prim_masks``): a (rows, m) boolean edge mask, and
    whether each row's tree was certified. The rows not certified take
    ``_prim_race``'s tree.

    One ``scipy.sparse.csgraph.dijkstra`` call runs over disjoint copies of
    the graph, one per row with its own source, under lengths
    exp(log_clock_e - lo) >= 1 for the row's minimum lo.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n, m = g.n, g.m
    lo = log_clock.min(axis=1)
    certified = log_clock.max(axis=1) < lo + PAMST_MAX_LOG_SPAN
    tree = np.zeros(log_clock.shape, dtype=bool)
    rows = np.flatnonzero(certified)
    if r := len(rows):
        indptr, cols, slots = g.adjacency
        length = np.exp(log_clock[rows] - lo[rows, None])
        # copy c numbers its vertices from c * n and its slots from c * m
        copy = np.arange(r)[:, None]
        slots = (slots + m * copy).ravel()
        indptr = np.append((indptr[:-1] + 2 * m * copy).ravel(), 2 * m * r)
        cols = (cols + n * copy).ravel()
        block = csr_matrix((length.ravel()[slots], cols, indptr), shape=(r * n, r * n))
        t = np.empty((r, n + 1))  # t[:, v] for vertex v, so the 1-based endpoints index it
        t[:, 1:] = dijkstra(block, indices=n * np.arange(r), min_only=True).reshape(r, n)
        tree[rows], certified[rows] = _slack_certificate(t, g.u_arr, g.v_arr, length)
    for i in np.flatnonzero(~certified):
        tree[i] = np.isin(np.arange(m), _prim_race(g, log_clock[i]))
    return tree, certified


def _slack_certificate(t: np.ndarray, u_arr: np.ndarray, v_arr: np.ndarray,
                       length: np.ndarray) -> tuple[np.ndarray, np.ndarray | bool]:
    """Dijkstra's tree edges under ``length``, as a boolean mask, and
    whether they are certified, from its distances ``t`` (t[..., v] for
    vertex v): of one row, or along the last axis of a block.

    Each edge's slack is min(t_u, t_v) + X_e - max(t_u, t_v). Dijkstra set
    each t_v as the float sum t_p + X_e along v's tree edge, so the n-1
    tree edges have slack exactly 0. The tree is kept only if no other edge
    does and every other slack exceeds 4 n 2^-53 max(t_u, t_v). That bound
    covers the rounding of n-1 sums on each side and of the slack itself,
    so the exact slacks of the non-tree edges are positive too: the tree is
    the unique shortest-path tree of the lengths X_e, and no ties or
    swamped clocks chose it.
    """
    n = t.shape[-1] - 1
    tu, tv = np.take(t, u_arr, axis=-1), np.take(t, v_arr, axis=-1)
    far = np.maximum(tu, tv)
    slack = np.minimum(tu, tv, out=tu)
    slack += length
    with np.errstate(invalid="ignore"):  # inf - inf at an unreached edge
        slack -= far
    tight = slack == 0.0
    far *= 4.0 * n * 2.0 ** -53
    # a NaN slack (an overflowed or unreached t) is neither tight nor above the bound
    certified = (tight.sum(axis=-1) == n - 1) & (tight | (slack > far)).all(axis=-1)
    return tight, certified


def _below_window(t: np.ndarray, lo: float, log_window: float) -> bool:
    """Whether Dijkstra's distances ``t`` (t[v] for vertex v, under lengths
    exp(log_clock_e - lo)) over a subset of the edges are the distances
    over all m, every other edge's clock being above T = exp(log_window).

    They are if every distance is below exp(log_window - lo) (1 - 2 (n +
    |log_window| + |lo| + 3) 2^-53), and so every vertex was reached (an
    unreached one has t = inf). An exact distance is within a factor
    1 + n 2^-53 of the float sum of its at most n-1 lengths. The bound, and
    each length, is an exp of a log of size at most |log_window| + |lo|
    after a subtraction and a division or two, so within a factor
    1 + (|log_window| + |lo| + 3) 2^-53 of its exact value; the margin is
    twice the two together. Then each other edge's length exceeds every
    exact distance, so its slack is positive and it lies on no shortest
    path: the tree over the subset is the tree over all m edges.
    """
    margin = 2.0 * (len(t) - 1 + abs(log_window) + abs(lo) + 3.0) * 2.0 ** -53
    return t[1:].max() < math.exp(log_window - lo) * (1.0 - margin)


def _prim_race(g: WeightedGraph, log_clock: np.ndarray) -> np.ndarray:
    """The race's tree from vertex 1 under clocks X_e = exp(log_clock_e),
    as an int64 array of 0-based edge indices in the order they join,
    without Dijkstra's absolute times.

    Prim's key array holds, for each outside vertex, the log of the time
    left on its earliest crossing clock, and the edge of that clock. Each
    round the smallest key wins, and every other key is re-based to the
    time left after it, log(R - R*) = log R + log(-expm1(log R* - log R)).
    The keys are logs and relative to the last ring, so no clock
    overflows, underflows or is swamped by the time already run. The
    joining vertex's edges then start their clocks. A -inf clock rings at
    once; ties go to the lowest vertex, and between one vertex's clocks to
    the lowest edge id.
    """
    n = g.n
    indptr, nbr, slots = g.adjacency
    indptr = indptr.tolist()
    nbr = nbr.astype(np.intp)  # indexing with int32 made the race up to 60% slower
    slot_clock = log_clock[slots]
    key = np.full(n, np.inf)  # inside vertices stay at +inf; vertex v is v - 1
    via = np.zeros(n, dtype=np.int64)
    outside = np.ones(n, dtype=bool)
    x = 0
    chosen = np.empty(n - 1, dtype=np.int64)
    with np.errstate(divide="ignore"):  # a tied key re-bases to log(0)
        for i in range(n - 1):
            outside[x] = False
            key[x] = np.inf
            lo, hi = indptr[x], indptr[x + 1]
            keep = outside[nbr[lo:hi]]
            y, c, e = nbr[lo:hi][keep], slot_clock[lo:hi][keep], slots[lo:hi][keep]
            np.minimum.at(key, y, c)
            won = c == key[y]  # a new clock tied with an old one wins
            y, e = y[won], e[won]
            via[y] = g.m
            np.minimum.at(via, y, e)
            x = int(key.argmin())
            chosen[i] = via.item(x)
            k = key.item(x)
            if k > -math.inf:
                left = np.expm1(k - key)
                np.negative(left, out=left)
                key += np.log(left, out=left)
    return chosen


MECHANISMS = {
    "perturb": input_perturbation_mst,
    "kruskal": input_perturbation_mst,
    "onepass": input_perturbation_mst,
    "pamst": pamst,
    "sealfon-laplace": partial(sealfon_mst, mode="laplace_pure"),
    "sealfon-gauss": partial(sealfon_mst, mode="gaussian_zcdp"),
}


def run_mechanism(mechanism_id: str, g: WeightedGraph, budget: PrivacyBudget,
                  stream: RngStream) -> MechanismResult:
    try:
        fn = MECHANISMS[mechanism_id]
    except KeyError:
        raise UnknownMechanismError(
            f"unknown mechanism {mechanism_id!r}; known: {sorted(MECHANISMS)}") from None
    return fn(g, budget, stream)

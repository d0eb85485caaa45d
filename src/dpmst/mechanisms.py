"""The private MST mechanisms.

Six registry ids. ``perturb``, ``onepass`` and ``kruskal`` all run input
perturbation, the one noise-then-Kruskal body (``input_perturbation_mst``).
It samples the tree distribution of Kruskal with the exponential mechanism in
every round, so ``kruskal`` is that body plus the op counts of its scan. On
large graphs the body draws only the noise Kruskal's scan can reach. The
baselines are ``sealfon-laplace`` and ``sealfon-gauss`` (input
privatization) and ``pamst`` (Prim-based): the shortest-path tree from
vertex 1 under lengths exp(eps' / (2 * delta_inf) * w~_e) of ``perturb``'s
vector w~, which ``_dijkstra_tree`` computes for a block of vectors at once.
On large graphs ``pamst`` too draws only the noise its tree can reach.

Every mechanism takes (graph, budget, stream) and returns a MechanismResult;
none reads system entropy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .accounting import PrivacyBudget, gaussian_sigma_for_input_privatization
from .graph import (SpanningTree, WeightedGraph, _endpoint_slots, _kruskal_picks,
                    kruskal_mst)
from .rng import RngStream


class UnknownMechanismError(ValueError):
    pass


@dataclass
class MechanismResult:
    """Output of one mechanism invocation.

    ``noisy_weights`` is a per-edge noisy vector when the mechanism computed
    one. It is a private release only when ``noisy_weights_released`` is
    True (the input-privatization baselines); for the perturbation
    mechanisms the noise is calibrated to privatize the tree alone, and the
    vector is retained purely as a diagnostic. When input perturbation
    revealed its noise lazily (above the size rule of
    ``input_perturbation_mst``), the revealed edges hold their noisy weights
    and every other edge one clamp value, above all of them. The tree is an
    MST of the vector either way, and the true tree's clamped sum is at
    most its full-noise sum, so a noisy-minimality check against it is no
    weaker.
    """

    tree: SpanningTree
    noisy_weights: np.ndarray | None = None
    noisy_weights_released: bool = False
    wall_time_ns: int = 0
    ops: dict = field(default_factory=dict)


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
# calls a side, shared 2-core x86 machine), lowest to highest over perturb,
# kruskal and pamst at eps = 1, delta_inf = 1 and at rho = 1, delta_inf =
# 0.1, as (m, m / n ln n): K128 (8,128; 13) 1.01-1.27, K181 (16,290; 17)
# 0.87-1.15, K200 (19,900; 19) 0.83-0.98, K221 (24,310; 20) 0.76-0.97, K230
# (26,335; 21) 0.73-0.95, K256 (32,640; 23) 0.64-0.91, ER(362, 0.5)
# (32,737; 15) 0.74-0.94, ER(512, 0.3) (39,189; 12) 0.79-0.99, ER(512, 0.5)
# (65,253; 20) 0.61-0.82, ER(1024, 0.2) (105,113; 15) 0.64-0.78, ER(2048,
# 0.1) (209,468; 13) 0.59-0.75. Below the density half: ER(1024, 0.1)
# (52,603; 7.4) 0.93-1.04, ER(1024, 0.05) (26,255; 3.7) 1.25-1.39,
# ER(2048, 0.02) (42,083; 2.7) 1.26-1.57, ER(4096, 0.01) (84,020; 2.5)
# 1.23-1.57. The reveal pays from about 20,000 edges; the floor keeps a
# margin above K200, which read up to 1.01 in an earlier run. No benchmark
# workload sits near either edge of the rule; both rest on this ladder.
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

    Only the edge set is the private release; the noisy vector is far too
    lightly noised to be released itself and is kept as a diagnostic.

    It is also the one-pass private Kruskal (``onepass``): one race score
    Exp(1) / exp(-eps' * w_e / (2*delta_inf)) per edge, then plain Kruskal in
    score order, whose skipping of connected edges is the repeated argmin
    with cycle removal of private_kruskal_mst. ln(score) =
    (eps'/(2*delta_inf)) * (w_e + (2*delta_inf/eps') * ln(Exp(1))) - const,
    a positive affine map of the perturbed weight, so the tree is the same
    for every draw.

    The tree depends only on the prefix of the noisy order that Kruskal's
    scan reads. Below a size rule (``_first_window``) the window is
    infinite: the noise is ``perturb_weights``' vector, draw for draw, and
    ``kruskal_mst`` takes it. On larger graphs ``_lazy_mst`` reveals only
    the edges whose clocks ring in a first window (``_first_window``), with
    the same tree distribution.
    """
    t0 = time.perf_counter_ns()
    eps_prime = budget.per_round(g.n - 1)
    scale = _noise_scale(eps_prime, budget.delta_inf)
    log_window = _first_window(g, scale, g.n / 2 * (math.log(g.n) + LAZY_GUMBEL))
    if log_window == math.inf:
        noisy = perturb_weights(g, eps_prime, budget.delta_inf, stream)
        tree = kruskal_mst(g, noisy)
    else:
        tree, noisy = _lazy_mst(g, scale, stream, log_window)
    return MechanismResult(tree=tree, noisy_weights=noisy,
                           wall_time_ns=time.perf_counter_ns() - t0)


def _first_window(g: WeightedGraph, scale: float, target: float) -> float:
    """ln T of the first window: inf below the size rule (``LAZY_MIN_EDGES``
    and ``LAZY_MIN_DENSITY``), else about the ln T by which ``target``
    clocks are expected to ring, solved once per graph, scale and target and
    kept in ``g.windows``. The expectation, sum_e 1 - exp(-exp(ln T -
    w_e/b)), is read on every ``LAZY_STRIDE``-th edge of ``g.by_weight``.
    The first guess is the later of two: the T at which the rates sum to
    the target (each term is at most its rate times T), and the target's
    quantile of w/b, less 1, for rates far apart. Each step then scales T
    by target / expected, which keeps the expectation on the side of the
    target where it started and moves it closer. A solve that over- or
    underflows gives inf too."""
    if g.m < max(LAZY_MIN_EDGES, LAZY_MIN_DENSITY * g.n * math.log(g.n)):
        return math.inf
    key = (scale, target)
    if key not in g.windows:
        minus_ln_s = g.weights[g.by_weight[LAZY_STRIDE // 2::LAZY_STRIDE]] / scale
        per_stride, low = target / LAZY_STRIDE, minus_ln_s[0]
        with np.errstate(all="ignore"):
            log_t = math.log(per_stride / np.exp(low - minus_ln_s).sum()) + low
            log_t = max(log_t, minus_ln_s[min(int(per_stride), len(minus_ln_s) - 1)] - 1.0)
            for _ in range(4):
                log_t += math.log(per_stride / -np.expm1(-np.exp(log_t - minus_ln_s)).sum())
        g.windows[key] = log_t if math.isfinite(log_t) else math.inf
    return g.windows[key]


def _reveal(g: WeightedGraph, scale: float, stream: RngStream,
            log_window: float) -> tuple[np.ndarray, np.ndarray]:
    """The clocks that ring by T = exp(log_window), with their noisy
    weights: ``(rev, noisy_rev)``, the 0-based ids in increasing order and
    w_e + b ln(E_e), b = ``scale``, for each.

    Edge e is an exponential clock X_e = E_e / s_e of rate s_e = exp(-w_e/b),
    and b ln(X_e) is ``perturb_weights``' noisy weight. Clock e rings by T
    with probability p_e = 1 - exp(-s_e T), independently of the others:
    ln(s_e T) = a_e = log_window - w_e/b, kept in logs so that no rate
    under- or overflows.

    - The heads among coins of probability q_j, the p_e of the lightest
      edge of weight bucket j (a run of ``g.by_weight``, min(LAZY_BUCKET,
      the power of two at or above n ln n) edges long), are the candidates;
      each is kept with probability p_e / q_j. So edge e is revealed with
      probability p_e, at a cost of about the number revealed.
    - A revealed edge's E_e is drawn conditioned on E_e <= s_e T by inverse
      CDF, -ln(1 - U p_e) for U uniform.
    """
    w, m = g.weights, g.m
    bucket = min(LAZY_BUCKET, 1 << (max(1, math.ceil(g.n * math.log(g.n))) - 1).bit_length())
    lightest = w[g.by_weight[::bucket]] / scale
    sizes = np.minimum(bucket, m - bucket * np.arange(len(lightest)))
    # exp(a_e) that overflows gives p_e = 1; U p_e that underflows, ln E = -inf
    with np.errstate(over="ignore", divide="ignore"):
        q = -np.expm1(-np.exp(log_window - lightest))
        heads = stream.coin_heads(sizes, q)
        cand = g.by_weight[heads]
        p = -np.expm1(-np.exp(log_window - w[cand] / scale))
        # in id order, so that noisy ties break as in kruskal_mst
        rev = np.sort(cand[stream.uniform(len(cand)) * q[heads // bucket] <= p])
        a = log_window - w[rev] / scale
        p = -np.expm1(-np.exp(a))
        ln_e = np.log(-np.log1p(-stream.uniform(len(rev)) * p))
    return rev, w[rev] + scale * np.minimum(ln_e, a, out=ln_e)


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


def _lazy_mst(g: WeightedGraph, scale: float, stream: RngStream,
              log_window: float) -> tuple[SpanningTree, np.ndarray]:
    """Kruskal's tree of ``perturb_weights``' noisy weights w + b ln(E),
    b = ``scale``, revealing only the edges whose noise falls in a window.

    Kruskal scans the edges in the order their clocks ring (``_reveal``).
    It runs, by ``kruskal_mst``'s own choice of scan or Borůvka, on the
    edges revealed by T = exp(log_window). Every unrevealed edge rings after
    T, later than every revealed one, so if the revealed edges span, the
    tree is the full vector's. The returned vector then holds one clamp
    value, just above every revealed weight, for each unrevealed edge: the
    tree is also its MST. Otherwise ``_extend`` draws the other clocks and
    Kruskal runs on the full vector.
    """
    rev, noisy_rev = _reveal(g, scale, stream, log_window)
    need = g.n - 1
    if len(rev) >= need:
        picked = _kruskal_picks(g.n, g.u_arr[rev], g.v_arr[rev], noisy_rev, need)
        if len(picked) == need:
            clamp = np.nextafter(max(scale * log_window, noisy_rev.max()), math.inf)
            noisy = np.full(g.m, clamp)
            noisy[rev] = noisy_rev
            tree = SpanningTree(frozenset((rev[np.asarray(picked) - 1] + 1).tolist()))
            return tree, noisy
    noisy = _extend(g, scale, stream, log_window, rev, noisy_rev)
    return kruskal_mst(g, noisy), noisy


def private_kruskal_mst(g: WeightedGraph, budget: PrivacyBudget,
                        stream: RngStream) -> MechanismResult:
    """Kruskal with each greedy choice replaced by the exponential mechanism.

    Each of the n-1 rounds picks an edge that closes no cycle with
    probability proportional to exp(-eps' * w_e / (2 * delta_inf)) among
    such edges (McSherry & Talwar, FOCS 2007). That is the input
    perturbation release: the -ln(Exp(1)) noise is a Gumbel race, the
    lightest noisy edge that closes no cycle wins each round with the
    mechanism's probability, and the race's leftover clocks are
    memoryless. So the body is one ``input_perturbation_mst`` call.

    ``ops`` describes Kruskal's scan of the noisy vector w~. With (w*, e*)
    the largest (w~, id) over the released tree's edges, the scan reads
    every edge ranked at or before (w*, e*) under (w~, id) and no other.
    ``ops["edge_checks"]`` is 1 for each of those edges and 0 otherwise;
    ``ops["draws"]`` is their number, from n-1 to m. By the Gumbel-top-k
    identity the scan order is weighted sampling without replacement, so
    the count has the distribution of the per-round mechanism's draws when
    cycle-closing edges are deleted only once drawn.
    """
    t0 = time.perf_counter_ns()
    result = input_perturbation_mst(g, budget, stream)
    noisy = result.noisy_weights
    ids = np.fromiter(result.tree.edge_ids, dtype=np.int64) - 1
    tree_noisy = noisy[ids]
    last = tree_noisy.max()
    e_last = ids[tree_noisy == last].max()
    scanned = noisy < last
    scanned[:e_last + 1] |= noisy[:e_last + 1] == last
    result.ops = {"edge_checks": scanned.astype(np.int64),
                  "draws": int(np.count_nonzero(scanned))}
    result.wall_time_ns = time.perf_counter_ns() - t0
    return result


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
# race's n-1 rounds cost less than Dijkstra's fixed cost (mostly scipy's
# input checks). Median us a call on 300 noisy vectors, one-row Dijkstra
# against the race, shared 2-core x86 machine: K3 85 against 24, K5 122
# against 70, K8 138 against 126, K9 134 against 139, K10 135 against 157.
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
    (``noisy_weights`` is None): the tree is not its minimum spanning tree.

    Below the size rule of ``_first_window`` w~ is
    ``perturb_weights(g, eps', delta_inf, stream)``, m draws, and the tree
    is a function of it alone: ``_dijkstra_tree`` computes it as a block of
    one row, or ``_prim_race`` on at most ``PAMST_RACE_MAX_N`` vertices,
    the same tree. Above the rule ``_lazy_pamst`` reveals only the clocks
    that ring in a first window, with the same tree distribution.

    ``ops["edge_scans"]`` counts incidence slots read: 2m a full path, 4m
    without a certified Dijkstra tree, plus 2 per revealed edge for the
    lazy path's Dijkstra. ``ops["draws"]`` counts the clocks drawn: m, or
    the revealed ones when the lazy path's tree was certified.
    """
    t0 = time.perf_counter_ns()
    eps_prime = budget.per_round(g.n - 1)
    scale = _noise_scale(eps_prime, budget.delta_inf)
    log_window = _first_window(g, scale, PAMST_WINDOW * g.n * math.log(g.n))
    if log_window == math.inf:
        log_clock = perturb_weights(g, eps_prime, budget.delta_inf, stream)
        log_clock *= eps_prime / (2.0 * budget.delta_inf)
        chosen, scans = _spt(g, log_clock)
        ops = {"edge_scans": scans, "draws": g.m}
    else:
        chosen, ops = _lazy_pamst(g, scale, stream, log_window)
    return MechanismResult(tree=SpanningTree(frozenset(chosen)),
                           wall_time_ns=time.perf_counter_ns() - t0, ops=ops)


def _spt(g: WeightedGraph, log_clock: np.ndarray) -> tuple[list[int], int]:
    """The race's tree under all m clocks X_e = exp(log_clock_e), as 1-based
    edge ids, and the incidence slots read: ``_dijkstra_tree`` as a block of
    one row, or ``_prim_race`` on at most ``PAMST_RACE_MAX_N`` vertices."""
    if g.n > PAMST_RACE_MAX_N:
        tree, certified = _dijkstra_tree(g, log_clock[None])
        return (np.flatnonzero(tree[0]) + 1).tolist(), 2 * g.m if certified[0] else 4 * g.m
    return _prim_race(g, log_clock), 2 * g.m


def _lazy_pamst(g: WeightedGraph, scale: float, stream: RngStream,
                log_window: float) -> tuple[list[int], dict]:
    """``pamst``'s tree, as 1-based edge ids, and its ops, from the clocks
    X_e = exp(w~_e / b), b = ``scale``, that ring by T = exp(log_window).

    ``_reveal`` draws those clocks, and ``_dijkstra_tree`` runs on the
    revealed edges with the window's certificate: every vertex reached, at
    a distance below T. Every unrevealed clock is above T, so above every
    distance: it can neither shorten a path nor tie with one, and the
    shortest-path tree of the revealed edges is that of all m. Otherwise
    ``_extend`` draws the other clocks, conditioned on ringing after T, and
    the tree is ``_spt``'s of the full vector.
    """
    rev, noisy_rev = _reveal(g, scale, stream, log_window)
    scans = 0
    if len(rev) >= g.n - 1:
        tree, certified = _dijkstra_tree(g, (noisy_rev / scale)[None], rev, log_window)
        if certified[0]:
            return (rev[tree[0]] + 1).tolist(), {"edge_scans": 2 * len(rev), "draws": len(rev)}
        scans = 2 * len(rev)
    noisy = _extend(g, scale, stream, log_window, rev, noisy_rev)
    chosen, full = _spt(g, noisy / scale)
    return chosen, {"edge_scans": scans + full, "draws": g.m}


def _dijkstra_tree(g: WeightedGraph, log_clock: np.ndarray, edges: np.ndarray | None = None,
                   log_window: float = -math.inf) -> tuple[np.ndarray, np.ndarray]:
    """The shortest-path tree from vertex 1 of each row of a (rows, k)
    block, under lengths X_e = exp(log_clock_e), as a (rows, k) boolean
    edge mask, and whether Dijkstra's tree was certified for the row. The
    columns are the edges ``edges`` (0-based, increasing), by default all
    m; every other edge's clock is above exp(log_window). Over all m edges
    the other rows, and those whose clocks hold a -inf or span
    ``PAMST_MAX_LOG_SPAN`` or more in logs, take ``_prim_race``'s tree.
    Over a subset they are only reported, for the caller to extend, and
    the span counts log_window too.

    One ``scipy.sparse.csgraph.dijkstra`` call runs over disjoint copies of
    the graph, one per row with its own source, under lengths
    exp(log_clock_e - lo) >= 1 for the row's minimum lo. The certificate
    reads each edge's slack min(t_u, t_v) + X_e - max(t_u, t_v) on the
    distances t. Dijkstra set each t_v as the float sum t_p + X_e along
    v's tree edge, so the n-1 tree edges have slack exactly 0. The tree is
    kept only if no other edge does and every other slack exceeds
    4 n 2^-53 max(t_u, t_v). That bound covers the rounding of n-1 sums
    on each side and of the slack itself, so the exact slacks of the
    non-tree edges are positive too: the tree is the unique shortest-path
    tree of the lengths X_e, and no ties or swamped clocks chose it.

    Over a subset every other edge's clock is known only to exceed
    T = exp(log_window), so the tree is kept only if, also, every distance
    is below exp(log_window - lo) (1 - 2 (n + |log_window| + |lo| + 3)
    2^-53), and so every vertex was reached. An exact distance is within a
    factor 1 + n 2^-53 of the float sum of its at most n-1 lengths. The
    bound, and each length, is an exp of a log of size at most
    |log_window| + |lo| after a subtraction and a division or two, so
    within a factor 1 + (|log_window| + |lo| + 3) 2^-53 of its exact
    value; the margin is twice the two together. Then each other edge's
    length exceeds every exact distance, so its slack is positive and it
    lies on no shortest path: the tree over the subset is the tree over
    all m edges.

    scipy is imported here, on the first call, so that ``import dpmst``
    and every other mechanism run without loading it.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n, m = g.n, log_clock.shape[1]
    if edges is None:
        u_arr, v_arr = g.u_arr, g.v_arr
        slots, (indptr, cols) = g.incidence[1], g.adjacency
    else:
        u_arr, v_arr = g.u_arr[edges], g.v_arr[edges]
        # int32, as g.adjacency: scipy would check and convert int64 arrays
        indptr, order = _endpoint_slots(n, u_arr, v_arr)
        slots, cols = order % m, (np.concatenate([v_arr, u_arr])[order] - 1).astype(np.int32)
        indptr = indptr[1:].astype(np.int32)
    lo = log_clock.min(axis=1)
    # false at lo = -inf; over a subset the bound exp(log_window - lo) is finite too
    certified = np.maximum(log_clock.max(axis=1), log_window) < lo + PAMST_MAX_LOG_SPAN
    tree = np.zeros(log_clock.shape, dtype=bool)
    rows = np.flatnonzero(certified)
    if k := len(rows):
        length = np.exp(log_clock[rows] - lo[rows, None])
        # copy c numbers its vertices from c * n and its slots from c * m; one
        # row is g's own arrays: the three offset copies cost a K256 call 25%
        if k > 1:
            copy = np.arange(k)[:, None]
            slots = (slots + m * copy).ravel()
            indptr = np.append((indptr[:-1] + 2 * m * copy).ravel(), 2 * m * k)
            cols = (cols + n * copy).ravel()
        block = csr_matrix((length.ravel()[slots], cols, indptr), shape=(k * n, k * n))
        t = np.empty((k, n + 1))  # t[:, v] for vertex v, so the 1-based endpoints index it
        t[:, 1:] = dijkstra(block, indices=n * np.arange(k), min_only=True).reshape(k, n)
        tu, tv = np.take(t, u_arr, axis=1), np.take(t, v_arr, axis=1)
        far = np.maximum(tu, tv)
        slack = np.minimum(tu, tv, out=tu)
        slack += length
        with np.errstate(invalid="ignore"):  # inf - inf at an unreached edge
            slack -= far
        tight = slack == 0.0
        far *= 4.0 * n * 2.0 ** -53
        # a NaN slack (an overflowed or unreached t) is neither tight nor above the bound
        certified[rows] = ((np.bincount(np.flatnonzero(tight) // m, minlength=k) == n - 1)
                           & (tight | (slack > far)).all(axis=1))
        if edges is not None:  # an unreached vertex has t = inf
            margin = 2.0 * (n + abs(log_window) + np.abs(lo[rows]) + 3.0) * 2.0 ** -53
            certified[rows] &= t[:, 1:].max(axis=1) < np.exp(log_window - lo[rows]) * (1.0 - margin)
        tree[rows] = tight
    if edges is None:
        for r in np.flatnonzero(~certified):
            tree[r] = np.isin(np.arange(1, m + 1), _prim_race(g, log_clock[r]))
    return tree, certified


def _prim_race(g: WeightedGraph, log_clock: np.ndarray) -> list[int]:
    """The race's tree from vertex 1 under clocks X_e = exp(log_clock_e),
    as 1-based edge ids, without Dijkstra's absolute times.

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
    indptr, incident = g.incidence
    indptr = indptr.tolist()
    nbr = g.neighbours
    slot_clock = log_clock[incident]
    key = np.full(n + 1, np.inf)  # inside vertices and vertex 0 stay at +inf
    via = np.zeros(n + 1, dtype=np.int64)
    outside = np.ones(n + 1, dtype=bool)
    outside[0] = False
    x = 1
    chosen: list[int] = []
    with np.errstate(divide="ignore"):  # a tied key re-bases to log(0)
        for _ in range(n - 1):
            outside[x] = False
            key[x] = np.inf
            lo, hi = indptr[x], indptr[x + 1]
            keep = outside[nbr[lo:hi]]
            y, c, e = nbr[lo:hi][keep], slot_clock[lo:hi][keep], incident[lo:hi][keep]
            np.minimum.at(key, y, c)
            won = c == key[y]  # a new clock tied with an old one wins
            y, e = y[won], e[won]
            via[y] = g.m
            np.minimum.at(via, y, e)
            x = int(key.argmin())
            chosen.append(via.item(x) + 1)
            k = key.item(x)
            if k > -math.inf:
                left = np.expm1(k - key)
                np.negative(left, out=left)
                key += np.log(left, out=left)
    return chosen


MECHANISMS = {
    "perturb": input_perturbation_mst,
    "kruskal": private_kruskal_mst,
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

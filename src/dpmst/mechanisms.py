"""The private MST mechanisms.

Six registry ids. ``perturb`` and ``onepass`` both name input perturbation,
the one noise-then-Kruskal body (``_noisy_kruskal``), which samples the same
tree distribution as ``kruskal``, the per-round exponential mechanism. The
baselines are ``sealfon-laplace`` and ``sealfon-gauss`` (input
privatization) and ``pamst`` (Prim-based).

Every mechanism takes (graph, budget, stream) and returns a MechanismResult;
none reads system entropy.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from .accounting import PrivacyBudget, gaussian_sigma_for_input_privatization
from .graph import DisjointSets, SpanningTree, WeightedGraph, kruskal_mst
from .rng import RngStream
from .sampling import SamplingTree


class UnknownMechanismError(ValueError):
    pass


@dataclass
class MechanismResult:
    """Output of one mechanism invocation.

    ``noisy_weights`` is the full per-edge noisy vector when the mechanism
    computed one. It is a private release only when
    ``noisy_weights_released`` is True (the input-privatization baselines);
    for the perturbation mechanisms the noise is calibrated to privatize the
    tree alone, and the vector is retained purely as a diagnostic.
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
    if not 0 < eps_prime < math.inf or not 0 < delta_inf < math.inf:
        raise ValueError("eps_prime and delta_inf must be positive and finite")
    noisy = stream.ln_exponential(size=g.m if rows is None else (rows, g.m))
    noisy *= delta_inf * (2.0 / eps_prime)
    noisy += g.weights
    return noisy


def _noisy_kruskal(g: WeightedGraph, eps_prime: float, delta_inf: float,
                   stream: RngStream) -> MechanismResult:
    """Perturb every weight once at eps', then run exact Kruskal."""
    t0 = time.perf_counter_ns()
    noisy = perturb_weights(g, eps_prime, delta_inf, stream)
    return MechanismResult(tree=kruskal_mst(g, noisy), noisy_weights=noisy,
                           wall_time_ns=time.perf_counter_ns() - t0)


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
    """
    return _noisy_kruskal(g, budget.per_round(g.n - 1), budget.delta_inf, stream)


one_pass_mst = input_perturbation_mst


def kruskal_sampling_weights(g: WeightedGraph, budget: PrivacyBudget) -> np.ndarray:
    """exp(-eps' * w_e / (2 * delta_inf)) per edge, the weights private
    Kruskal samples by, with eps' the budget's per-round share over n-1
    rounds.

    Shifting by the minimum only rescales them uniformly; weights that still
    underflow are clamped to the smallest positive normal, which the sampler
    cannot hit at double precision.
    """
    w = g.weights
    s = np.exp(-budget.per_round(g.n - 1) * (w - w.min()) / (2.0 * budget.delta_inf))
    return np.maximum(s, np.finfo(float).tiny)


# per graph, the (eps', delta_inf) pair and the sum tree private Kruskal
# starts from at that pair; weak keys, so an entry never keeps its graph alive
_START_TREES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kruskal_start_tree(g: WeightedGraph, budget: PrivacyBudget) -> SamplingTree:
    """A copy of ``SamplingTree(kruskal_sampling_weights(g, budget))``.

    The tree is a pure function of (g, eps', delta_inf), so it is built once
    per graph and pair and each call copies its node list; another pair on
    the same graph replaces the entry.
    """
    key = (budget.per_round(g.n - 1), budget.delta_inf)
    hit = _START_TREES.get(g)
    if hit is None or hit[0] != key:
        hit = _START_TREES[g] = key, SamplingTree(kruskal_sampling_weights(g, budget))
    return hit[1].copy()


def private_kruskal_mst(g: WeightedGraph, budget: PrivacyBudget,
                        stream: RngStream) -> MechanismResult:
    """Kruskal with each greedy choice replaced by the exponential mechanism.

    Each of the n-1 rounds picks an edge that closes no cycle with
    probability proportional to exp(-eps' * w_e / (2 * delta_inf)) among
    such edges. One sum tree holds every edge not yet drawn; a round draws
    and deletes edges from it until one joins two components, and releases
    that one. The draws are ``DisjointSets.join``'s edge scan.

    Discarding a cycle-closing draw is exact: an edge that closes a cycle
    keeps closing one for the rest of the run, so deleting it is what the
    eager rule (drop every edge the forest spans) does anyway, only later;
    and deleting it leaves the relative masses of the live edges unchanged.
    So each accepted draw has the exponential mechanism's distribution over
    the edges that close no cycle. The discarded draws are internal coins
    and are never released.

    ``ops["edge_checks"]`` is 1 for each drawn edge and 0 otherwise;
    ``ops["draws"]`` is the number of draws, at most m.
    """
    t0 = time.perf_counter_ns()
    tree = _kruskal_start_tree(g, budget)
    u_at, v_at = g.u_arr.item, g.v_arr.item
    drawn: list[int] = []

    def draws():
        while True:
            e = tree.pop(stream)
            drawn.append(e)
            yield e + 1, u_at(e), v_at(e)

    chosen = DisjointSets(g.n).join(draws(), g.n - 1)
    checks = np.zeros(g.m, dtype=np.int64)
    checks[drawn] = 1
    return MechanismResult(tree=SpanningTree(frozenset(chosen)),
                           wall_time_ns=time.perf_counter_ns() - t0,
                           ops={"edge_checks": checks, "draws": len(drawn)})


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


def pamst(g: WeightedGraph, budget: PrivacyBudget,
          stream: RngStream) -> MechanismResult:
    """Prim-Jarnik growth from vertex 1 with a private selection per cut.

    Each of the n-1 rounds applies the exponential mechanism over the
    cut-crossing edges (probability proportional to
    s_e = exp(-eps' * w_e / (2 * delta_inf))), composing to the same budget
    as the Kruskal-style mechanisms.

    A round draws in two stages. First an outside vertex b, with
    probability proportional to its cut mass M_b, the sum of s_e over the
    crossing edges into b; then one of those edges, proportional to s_e.
    (M_b / sum of M) * (s_e / M_b) = s_e / (sum of s over the cut), so this
    is the per-cut exponential mechanism itself. The masses are Prim's key
    array: when x joins, its own mass is dropped and each of its edges to
    an outside vertex adds s_e to that vertex's, so a round reads x's
    incidence slots and n + 1 masses instead of the m edges, and a call is
    O(m + n^2).

    The masses are kept as logs, log M_b, and each draw subtracts its
    largest log term before exponentiating: stage 2 shifts by the cut's
    minimum weight into b, stage 1 by the heaviest vertex mass. The largest
    term is then exp(0) = 1, so no draw's total underflows to 0. Linear
    masses would need one shift fixed before the cuts are known, and with
    the global minimum weight a cut lying more than about 745 / coef above
    it (coef = eps' / (2 * delta_inf)) has all its masses 0.0. The masses
    grow with ``np.logaddexp.at``, which adds every edge of a parallel
    bundle; a fancy-index write would keep only one of them.

    ``ops["edge_scans"]`` counts the incidence slots read (each vertex's
    once, so at most 2m); ``ops["draws"]`` is 2(n-1), two uniforms a round.
    """
    t0 = time.perf_counter_ns()
    n = g.n
    coef = budget.per_round(n - 1) / (2.0 * budget.delta_inf)
    indptr, incident = g.incidence
    indptr = indptr.tolist()
    nbr = g.neighbours
    log_s = -coef * g.weights[incident]  # log s_e per incidence slot
    log_mass = np.full(n + 1, -np.inf)
    in_tree = np.zeros(n + 1, dtype=bool)
    unif = stream.uniform(2 * (n - 1))  # the same values as 2(n-1) scalar draws
    x, lo, hi = 1, indptr[1], indptr[2]
    inside = in_tree[nbr[lo:hi]]  # slots of x whose far end is in the tree
    scans = hi - lo
    chosen: list[int] = []
    for r in range(n - 1):
        in_tree[x] = True
        log_mass[x] = -np.inf
        out = ~inside
        np.logaddexp.at(log_mass, nbr[lo:hi][out], log_s[lo:hi][out])
        # stage 1: the vertex; the largest term is exp(0) = 1, so the target
        # is positive and lands on a vertex of positive mass
        cum = np.exp(log_mass - log_mass.max()).cumsum()
        x = int(cum.searchsorted(unif[2 * r] * cum[-1], side="left"))
        # stage 2: the edge among x's slots that reach the tree; the other
        # slots get mass 0, which the same search never lands on
        lo, hi = indptr[x], indptr[x + 1]
        inside = in_tree[nbr[lo:hi]]
        scans += hi - lo
        ls = np.where(inside, log_s[lo:hi], -np.inf)
        cum = np.exp(ls - ls.max()).cumsum()
        j = int(cum.searchsorted(unif[2 * r + 1] * cum[-1], side="left"))
        chosen.append(int(incident[lo + j]) + 1)
    return MechanismResult(tree=SpanningTree(frozenset(chosen)),
                           wall_time_ns=time.perf_counter_ns() - t0,
                           ops={"edge_scans": scans, "draws": 2 * (n - 1)})


def _sealfon_laplace(g, budget, stream):
    return sealfon_mst(g, budget, stream, mode="laplace_pure")


def _sealfon_gauss(g, budget, stream):
    return sealfon_mst(g, budget, stream, mode="gaussian_zcdp")


MECHANISMS = {
    "perturb": input_perturbation_mst,
    "kruskal": private_kruskal_mst,
    "onepass": input_perturbation_mst,
    "pamst": pamst,
    "sealfon-laplace": _sealfon_laplace,
    "sealfon-gauss": _sealfon_gauss,
}


def run_mechanism(mechanism_id: str, g: WeightedGraph, budget: PrivacyBudget,
                  stream: RngStream) -> MechanismResult:
    try:
        fn = MECHANISMS[mechanism_id]
    except KeyError:
        raise UnknownMechanismError(
            f"unknown mechanism {mechanism_id!r}; known: {sorted(MECHANISMS)}") from None
    return fn(g, budget, stream)

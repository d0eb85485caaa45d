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
                    stream: RngStream) -> np.ndarray:
    """Per-edge noisy weights w_e + delta_inf * (2/eps') * ln(Exp(1))."""
    if not 0 < eps_prime < math.inf or not 0 < delta_inf < math.inf:
        raise ValueError("eps_prime and delta_inf must be positive and finite")
    z = stream.exponential(1.0, size=g.m)
    with np.errstate(divide="ignore"):  # Exp(1) may round to exactly 0
        return g.weights + delta_inf * (2.0 / eps_prime) * np.log(z)


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


def private_kruskal_mst(g: WeightedGraph, budget: PrivacyBudget,
                        stream: RngStream) -> MechanismResult:
    """Kruskal with each greedy choice replaced by the exponential mechanism.

    Each of the n-1 rounds picks an edge that closes no cycle with
    probability proportional to exp(-eps' * w_e / (2 * delta_inf)) among
    such edges. One sum tree holds every edge not yet drawn; a round draws
    and deletes edges from it until one joins two components, and releases
    that one.

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
    n = g.n
    eps_prime = budget.per_round(n - 1)
    w = g.weights
    # shifting by the minimum only rescales the sampling weights uniformly;
    # weights that still underflow are clamped to the smallest positive
    # normal, which the sampler cannot hit at double precision
    s = np.exp(-eps_prime * (w - w.min()) / (2.0 * budget.delta_inf))
    s = np.maximum(s, np.finfo(float).tiny)
    tree = SamplingTree(s)
    ds = DisjointSets(n)
    u_arr, v_arr = g.u_arr, g.v_arr
    drawn: list[int] = []
    chosen: list[int] = []
    while len(chosen) < n - 1:
        e = tree.sample(stream)
        tree.remove(e)
        drawn.append(e)
        if ds.merge(int(u_arr[e]), int(v_arr[e])):
            chosen.append(e + 1)
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
        noisy = g.weights + stream.laplace(scale, size=g.m)
    elif mode == "gaussian_zcdp":
        sigma = gaussian_sigma_for_input_privatization(
            budget.rho, g.m, budget.delta_inf)
        noisy = g.weights + stream.gaussian(sigma, size=g.m)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    tree = kruskal_mst(g, noisy)
    return MechanismResult(tree=tree, noisy_weights=noisy,
                           noisy_weights_released=True,
                           wall_time_ns=time.perf_counter_ns() - t0)


def pamst(g: WeightedGraph, budget: PrivacyBudget,
          stream: RngStream) -> MechanismResult:
    """Prim-Jarnik growth from vertex 1 with a private selection per cut.

    Each of the n-1 rounds applies the exponential mechanism over the
    cut-crossing edges (probability proportional to
    exp(-eps' * w_e / (2 * delta_inf))), composing to the same budget as the
    Kruskal-style mechanisms.

    The cut is a boolean mask over the edges: an edge crosses iff exactly
    one endpoint is in the tree, so when vertex x joins, the mask flips on
    x's incident edges and nowhere else. The crossing edges are read off in
    edge-id order.
    """
    t0 = time.perf_counter_ns()
    n = g.n
    eps_prime = budget.per_round(n - 1)
    coef = eps_prime / (2.0 * budget.delta_inf)
    w = g.weights
    u_arr, v_arr = g.u_arr, g.v_arr
    indptr, incident = g.incidence
    cut = np.zeros(g.m, dtype=bool)
    in_tree = [False] * (n + 1)
    x = 1
    chosen: list[int] = []
    for _ in range(n - 1):
        in_tree[x] = True
        at_x = incident[indptr[x]:indptr[x + 1]]
        cut[at_x] = ~cut[at_x]
        crossing = np.flatnonzero(cut)
        ws = w[crossing]
        sw = np.exp(-coef * (ws - ws.min()))
        cum = np.cumsum(sw)
        target = stream.uniform() * cum[-1]
        e = int(crossing[np.searchsorted(cum, target, side="left")])
        chosen.append(e + 1)
        u = int(u_arr[e])
        x = int(v_arr[e]) if in_tree[u] else u
    return MechanismResult(tree=SpanningTree(frozenset(chosen)),
                           wall_time_ns=time.perf_counter_ns() - t0)


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

"""Weighted sampling without replacement with adaptive candidate removal.

``sample_without_replacement`` is the one-shot exponential race: one log
key ln(Exp(1)) - ln s(j) per item up front, then the repeated argmin over
live candidates. It has the output distribution of resampling
proportionally each round and deleting the pick and whatever the removal
rule names (``exact.exact_selection_distribution``). With
``exact.cycle_rule`` as the rule it is private Kruskal; the mechanisms
release its tree distribution in one pass.

Plus the private maximum-weight matroid basis built on the same noise.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .accounting import PrivacyBudget
from .rng import RngStream

# Maps the ordered prefix of selected items to extra item indices to remove.
RemovalRule = Callable[[Sequence[int]], Iterable[int]]


class MatroidOracleError(ValueError):
    """The independence oracle failed a basic matroid axiom spot-check."""


def race_scores(weights, stream: RngStream) -> np.ndarray:
    """One exponential race key ln(Exp(1)) - ln s(j) per item, drawn in index order.

    The log of Exp(1) / s(j), so it orders items the same way; in logs a
    subnormal weight keeps its odds, where Exp(1) / s(j) overflows to inf.
    """
    w = np.asarray(weights, dtype=float)
    if not np.all((0 < w) & (w < np.inf)):  # also false for NaN
        raise ValueError("all weights must be positive and finite")
    return stream.ln_exponential(size=len(w)) - np.log(w)


def sample_without_replacement(weights, k: int, stream: RngStream,
                               remove_rule: RemovalRule | None = None) -> list[int]:
    """Select up to k item indices, each round proportional to weight.

    After each pick the chosen item plus everything the removal rule names is
    deleted; returns the (possibly shorter) ordered selection once k items are
    chosen or the candidates run out. Scores are drawn once; the repeated
    argmin over live candidates is realized by walking the items in
    increasing score order (ties toward the lowest index) and skipping the
    removed ones.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = race_scores(weights, stream)
    order = np.argsort(scores, kind="stable")
    alive = [True] * len(scores)
    selected: list[int] = []
    for j in order:
        j = int(j)
        if not alive[j]:
            continue
        selected.append(j)
        alive[j] = False
        if len(selected) == k:
            break
        if remove_rule is not None:
            for i in remove_rule(tuple(selected)):
                alive[i] = False
    return selected


def private_max_weight_basis(weights, is_independent, eps: float, delta: float,
                             delta_inf: float, stream: RngStream) -> list[int]:
    """Private maximum-weight independent set of a matroid over items 0..m-1.

    ``is_independent(ids)`` answers independence queries. The matroid's rank
    (computed from the public structure) sets the number of composition
    rounds; each element's weight is perturbed with
    -delta_inf * (2/eps') * ln(Exp(1)), whose sign makes the greedy argmax an
    exponential race over exp(+eps' * w / (2 * delta_inf)), and the standard
    greedy algorithm runs on the noisy weights. The budget and the weights
    are checked before any draw, as the mechanisms check theirs.
    """
    budget = PrivacyBudget.from_eps_delta(eps, delta, delta_inf)
    w = np.asarray(weights, dtype=float)
    m = len(w)
    if m < 1:
        raise ValueError("empty ground set")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if not is_independent(()):
        raise MatroidOracleError("oracle rejects the empty set")

    # rank is a property of the public matroid, independent of the weights
    basis_probe: list[int] = []
    for j in range(m):
        if is_independent(tuple(basis_probe + [j])):
            basis_probe.append(j)
    rank = len(basis_probe)
    if rank == 0:
        return []

    eps_prime = budget.per_round(rank)
    noisy = w - budget.delta_inf * (2.0 / eps_prime) * stream.ln_exponential(size=m)

    order = np.argsort(-noisy, kind="stable")
    basis: list[int] = []
    for j in order:
        j = int(j)
        if is_independent(tuple(basis + [j])):
            basis.append(j)
            if len(basis) == rank:
                break
    if not is_independent(tuple(basis)):
        raise MatroidOracleError("oracle rejects a set it accepted incrementally")
    return basis

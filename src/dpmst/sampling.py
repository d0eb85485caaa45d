"""The private maximum-weight basis of a matroid, by input perturbation.

``private_max_weight_basis`` perturbs every element's weight once with
-delta_inf * (2/eps') * ln(Exp(1)) and runs the greedy algorithm on the
noisy weights. On a graph's graphic matroid, with the weights negated, it
releases the tree of ``mechanisms.input_perturbation_mst`` seed by seed
(acceptance criterion 9).
"""

from __future__ import annotations

import numpy as np

from .accounting import PrivacyBudget
from .rng import RngStream


class MatroidOracleError(ValueError):
    """The independence oracle failed a basic matroid axiom spot-check."""


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

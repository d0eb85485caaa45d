"""Weighted sampling without replacement with adaptive candidate removal.

Two interchangeable implementations of the same output distribution:

* ``sample_without_replacement`` resamples proportionally each round from a
  binary sum tree, deleting the pick and whatever the removal rule names.
* ``race_sample_without_replacement`` draws one exponential race score per
  item up front and repeatedly takes the argmin over live candidates.

Plus the private maximum-weight matroid basis built on the same noise.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .accounting import per_round_epsilon, rho_from_eps_delta
from .rng import RngStream

# Maps the ordered prefix of selected items to extra item indices to remove.
RemovalRule = Callable[[Sequence[int]], Iterable[int]]


class MatroidOracleError(ValueError):
    """The independence oracle failed a basic matroid axiom spot-check."""


class SamplingTree:
    """Binary tree of subtree weight sums over m leaves.

    Supports proportional leaf sampling and leaf deletion in O(log m);
    internal sums are recomputed from children on every update, so removals
    do not accumulate cancellation error.
    """

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or not weights.size:
            raise ValueError("need a non-empty sequence of leaf weights")
        if not weights.min() > 0:  # also false for NaN
            raise ValueError("all leaf weights must be positive")
        m = len(weights)
        size = 1 << (m - 1).bit_length()
        sums = np.zeros(2 * size)
        sums[size:size + m] = weights
        # level by level, each node the sum of its two children: the same
        # additions as a node-by-node loop, so the same bits
        lo = size >> 1
        with np.errstate(over="ignore"):  # an infinite total is rejected below
            while lo:
                np.add(sums[2 * lo:4 * lo:2], sums[2 * lo + 1:4 * lo:2],
                       out=sums[lo:2 * lo])
                lo >>= 1
        if not math.isfinite(sums[1]):
            raise ValueError("leaf weights must have a finite total")
        self._size = size
        self._sums = sums.tolist()  # scalar descents read Python floats faster
        self.num_leaves = m
        self.live = m

    @property
    def total(self) -> float:
        return self._sums[1]

    def weight(self, leaf: int) -> float:
        return self._sums[self._size + leaf]

    def sample(self, stream: RngStream) -> int:
        """Live leaf index drawn with probability weight / total.

        The descent never enters a zero-sum child: when rounding (or u = 1)
        carries u past the live mass of one side, it takes the other.
        """
        sums = self._sums
        if sums[1] <= 0.0:
            raise ValueError("cannot sample from an empty tree")
        u = stream.uniform() * sums[1]  # u in [0, total]; 0 only on underflow
        i = 1
        size = self._size
        while i < size:
            left = 2 * i
            ls = sums[left]
            if (u <= ls and ls > 0.0) or sums[left + 1] == 0.0:
                i = left
            else:
                u -= ls
                i = left + 1
        return i - size

    def remove(self, leaf: int):
        if not 0 <= leaf < self.num_leaves:
            raise IndexError(f"leaf {leaf} out of range")
        node = self._size + leaf
        sums = self._sums
        if sums[node] == 0.0:
            raise ValueError(f"leaf {leaf} already removed")
        sums[node] = 0.0
        node >>= 1
        while node:
            sums[node] = sums[2 * node] + sums[2 * node + 1]
            node >>= 1
        self.live -= 1


def sample_without_replacement(weights, k: int, stream: RngStream,
                               remove_rule: RemovalRule | None = None) -> list[int]:
    """Iteratively select up to k item indices, each round proportional to weight.

    After each pick the chosen item plus everything the removal rule names is
    deleted; returns the (possibly shorter) ordered selection once k items are
    chosen or the candidates run out.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tree = SamplingTree(weights)
    alive = [True] * tree.num_leaves
    selected: list[int] = []
    while len(selected) < k and tree.live > 0:
        j = tree.sample(stream)
        selected.append(j)
        tree.remove(j)
        alive[j] = False
        if remove_rule is not None:
            for i in remove_rule(tuple(selected)):
                if alive[i]:
                    tree.remove(i)
                    alive[i] = False
    return selected


def race_scores(weights, stream: RngStream) -> np.ndarray:
    """One exponential race score Exp(1) / s(j) per item, drawn in index order."""
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("all weights must be positive")
    return stream.exponential(1.0, size=len(w)) / w


def race_sample_without_replacement(weights, k: int, stream: RngStream,
                                    remove_rule: RemovalRule | None = None) -> list[int]:
    """Same output distribution as ``sample_without_replacement``, one noise pass.

    Scores are drawn once; the repeated argmin over live candidates is realized
    by walking the items in increasing score order (ties toward the lowest
    index) and skipping the removed ones.
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
    greedy algorithm runs on the noisy weights.
    """
    w = np.asarray(weights, dtype=float)
    m = len(w)
    if m < 1:
        raise ValueError("empty ground set")
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

    rho = rho_from_eps_delta(eps, delta)
    eps_prime = per_round_epsilon(rho, rank)
    z = stream.exponential(1.0, size=m)
    with np.errstate(divide="ignore"):  # Exp(1) may round to exactly 0
        noisy = w - delta_inf * (2.0 / eps_prime) * np.log(z)

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

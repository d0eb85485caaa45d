"""Experiment runner: trial execution, aggregation, CSV emission, the density
sweep, and the distribution-equivalence suite (``tree_distribution_test``,
run on any small graph, the named ``EQUIV_FAMILIES`` through ``family_graph``).

Reports are a pure function of (instance, mechanism id, budget, master seed,
trials): trial i always uses the stream derived as (master_seed, (i,)), so
trials may be executed in any order, or in parallel, with identical records.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .accounting import PrivacyBudget
from .exact import (ChiSquareResult, by_edge_set, chi_square_gof,
                    exact_tree_distribution, join_table, prim_tree_distribution)
from .graph import WeightedGraph, _sorted_index, build_graph
from .instances import erdos_renyi_instance
from .mechanisms import (MECHANISMS, UnknownMechanismError, _dijkstra_trees,
                         perturb_weights, run_mechanism)
from .rng import RngStream

CSV_COLUMNS = ("mechanism", "n", "m", "p", "eps", "delta", "rho", "eps_prime",
               "delta_inf", "trial", "seed", "true_weight", "private_weight",
               "error", "runtime_ns")

SWEEP_MECHANISMS = ("perturb", "pamst", "sealfon-gauss")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    true_weight: float
    private_weight: float
    error: float
    runtime_ns: int


@dataclass
class RunReport:
    """Per-trial errors and runtimes for one (graph, mechanism, budget) cell."""

    mechanism: str
    n: int
    m: int
    budget: PrivacyBudget
    master_seed: int
    records: list[TrialRecord] = field(default_factory=list)
    density: float | None = None

    @property
    def errors(self) -> list[float]:
        return [r.error for r in self.records]

    @property
    def ratios(self) -> list[float]:
        return [r.private_weight / r.true_weight for r in self.records]

    def mean_error(self) -> float:
        return statistics.fmean(self.errors)

    def median_error(self) -> float:
        return statistics.median(self.errors)

    def std_error(self) -> float:
        return statistics.stdev(self.errors) if len(self.records) > 1 else 0.0

    def ci95_error(self) -> tuple[float, float]:
        mu = self.mean_error()
        half = 1.96 * self.std_error() / math.sqrt(len(self.records))
        return (mu - half, mu + half)

    def eps_prime(self) -> float:
        return self.budget.per_round(self.n - 1)


def _run_single_trial(g: WeightedGraph, mechanism_id: str, budget: PrivacyBudget,
                      master_seed: int, trial: int, true_weight: float,
                      true_ids: np.ndarray, true_mask: np.ndarray) -> TrialRecord:
    """Trial ``trial`` of ``run_trials``: one call on stream (master_seed,
    (trial,)) and its checks. ``true_ids`` are the exact MST's 0-based edge
    indices, increasing, and ``true_mask`` their m-long indicator. The
    tree's ids are read once, sorted: they give its weight, added in id
    order as ``tree_weight`` adds them, and its noisy weight under the
    call's noise record, found among the k recorded ids in O(n log k) by
    ``NoisyWeights.at``. That must not exceed the true tree's, read through
    ``true_mask`` at the recorded ids (``NoisyWeights.total``)."""
    stream = RngStream(master_seed, (trial,))
    result = run_mechanism(mechanism_id, g, budget, stream)
    ids = _sorted_index(result.tree, g.m)
    private_weight = float(g.weights[ids].sum())
    error = private_weight - true_weight
    if error < -1e-9:
        raise RuntimeError(
            f"private tree beat the exact MST by {-error}; MST oracle is broken")
    if result.noise is not None:
        # the returned tree must be minimal under its own noisy weights
        got = float(result.noise.at(ids).sum())
        ref = result.noise.total(true_ids, true_mask)
        # a -inf reference (Exp(1) rounded to 0) would make a relative
        # tolerance inf and ref + tol NaN, which no tree exceeds
        tol = 1e-9 * max(1.0, abs(ref)) if math.isfinite(ref) else 0.0
        if got > ref + tol:
            raise RuntimeError("mechanism returned a non-minimal tree for its noisy weights")
    return TrialRecord(trial=trial, true_weight=true_weight,
                       private_weight=private_weight, error=error,
                       runtime_ns=result.wall_time_ns)


def run_trials(g: WeightedGraph, mechanism_id: str, budget: PrivacyBudget,
               trials: int, master_seed: int) -> RunReport:
    """Run ``trials`` independent invocations; trial i uses stream (master_seed, (i,))."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if mechanism_id not in MECHANISMS:
        raise UnknownMechanismError(f"unknown mechanism {mechanism_id!r}")
    true_ids = g.mst.index
    true_weight = float(g.weights[true_ids].sum())
    true_mask = np.zeros(g.m, dtype=bool)
    true_mask[true_ids] = True
    report = RunReport(mechanism=mechanism_id, n=g.n, m=g.m, budget=budget,
                       master_seed=master_seed)
    for i in range(trials):
        report.records.append(_run_single_trial(
            g, mechanism_id, budget, master_seed, i, true_weight, true_ids, true_mask))
    return report


# -- density sweep -----------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    sweep_param: float
    mechanism: str
    n: int
    m: int
    median_ratio: float
    q1_ratio: float
    q3_ratio: float
    median_error: float
    q1_error: float
    q3_error: float


@dataclass
class DensitySweepResult:
    rows: list[SweepRow]
    reports: dict[tuple[float, str], RunReport]


def _quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = np.quantile(np.asarray(values, dtype=float), [0.25, 0.5, 0.75])
    return float(q1), float(q2), float(q3)


def density_sweep(n: int, densities, rho: float, trials: int, master_seed: int,
                  delta: float = 1e-6, delta_inf: float = 0.1) -> DensitySweepResult:
    """Weight-ratio comparison across graph densities, one row per (p, mechanism).

    For each density p, one connected G(n, p) instance with U(0, 100)
    weights is generated; every mechanism of ``SWEEP_MECHANISMS`` then runs
    ``trials`` times on it and the median/IQR of the private-to-true weight
    ratio is tabulated. A density outside [0, 1] (NaN included), 0 for
    n >= 2 (G(n, 0) never connects), or one given twice, is refused before
    any instance is drawn: the first two would fail only when their turn
    came, after every cell before them had run, and the cells of the third
    would share a key of ``reports``.
    """
    budget = PrivacyBudget.from_rho(rho, delta, delta_inf)
    densities = list(densities)
    keys = [float(p) for p in densities]
    bad = [p for p in keys if not 0.0 <= p <= 1.0]  # also true for NaN
    if bad:
        raise ValueError(f"each density must lie in [0, 1]; got {', '.join(map(str, bad))}")
    if n >= 2 and 0.0 in keys:
        raise ValueError(f"density 0 is refused: G({n}, 0) has no edges, so it never connects")
    repeated = sorted({p for p in keys if keys.count(p) > 1})
    if repeated:
        raise ValueError(f"each density may be given once; repeated: "
                         f"{', '.join(map(str, repeated))}")
    rows: list[SweepRow] = []
    reports: dict[tuple[float, str], RunReport] = {}
    for j, p in enumerate(densities):
        gen_stream = RngStream(master_seed, (1, j))
        g = erdos_renyi_instance(n, p, 0.0, 100.0, gen_stream)
        for kdx, mech in enumerate(SWEEP_MECHANISMS):
            cell_seed = int(np.random.SeedSequence(
                entropy=master_seed, spawn_key=(2, j, kdx)).generate_state(1)[0])
            report = run_trials(g, mech, budget, trials, cell_seed)
            report.density = float(p)
            reports[(float(p), mech)] = report
            q1r, q2r, q3r = _quartiles(report.ratios)
            q1e, q2e, q3e = _quartiles(report.errors)
            rows.append(SweepRow(sweep_param=float(p), mechanism=mech,
                                 n=g.n, m=g.m,
                                 median_ratio=q2r, q1_ratio=q1r, q3_ratio=q3r,
                                 median_error=q2e, q1_error=q1e, q3_error=q3e))
    return DensitySweepResult(rows=rows, reports=reports)


# -- equivalence suite -------------------------------------------------------

EQUIV_FAMILIES = {
    "k3": (3, [(1, 2), (2, 3), (1, 3)], [1.0, 2.0, 3.0]),
    "k4": (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
           [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    "k5": (5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)],
           [0.43, 1.18, 4.01, 2.91, 0.47, 2.17, 2.4, 0.8, 3.67, 0.57]),
}

EQUIV_MECHANISMS = ("perturb", "kruskal", "onepass")


def family_graph(family: str) -> WeightedGraph:
    try:
        n, edges, weights = EQUIV_FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; known: {sorted(EQUIV_FAMILIES)}") from None
    return build_graph(n, edges, weights, delta_inf=1.0)


# noise variates per block of a tally (1 MiB of doubles). The Kruskal rule
# reads a block through two strided columns per edge pair, and on K5 and
# K6 a 50,000-trial tally took 1.15-1.35x as long with 2 MiB blocks.
_BLOCK_VARIATES = 1 << 17


@dataclass
class EquivalenceResult:
    mechanism: str
    counts: dict[frozenset, int]
    chi: ChiSquareResult

    @property
    def passed(self) -> bool:
        return self.chi.passed


def _kruskal_masks(g: WeightedGraph, noisy: np.ndarray, coef: float,
                   joins: np.ndarray) -> np.ndarray:
    """Exact Kruskal's tree of each row of ``noisy``, as an edge mask, in
    ``kruskal_mst``'s scan order: by noisy weight, ties (-inf ones
    included) broken by edge id. The scan takes edge e iff e joins two
    trees of all the edges ranked before it, since each edge it rejected
    closed a cycle inside one tree. ``joins`` answers that for any edge
    mask, so a row's tree is the OR over e of joins[B_e, e], B_e being the
    mask of the edges ranked before e. Each B_f starts as every higher id;
    one comparison per pair f < e then, where f comes first, sets bit f of
    B_e and clears bit e of B_f. ``coef`` is unused: no positive scale
    changes the order."""
    m = g.m
    cols = [noisy[:, e] for e in range(m)]  # views, not a transposed copy
    before = np.empty((m, len(noisy)), dtype=np.uint16)  # m <= MAX_EDGES = 16
    for f in range(m):
        before[f] = (1 << m) - (2 << f)  # every higher id
    first = np.empty(len(noisy), dtype=bool)
    bit = np.empty(len(noisy), dtype=np.uint16)
    for e in range(1, m):
        for f in range(e):
            np.less_equal(cols[f], cols[e], out=first)  # a tie goes to the lower id
            np.left_shift(first, f, out=bit, dtype=np.uint16)
            before[e] |= bit
            bit <<= e - f
            before[f] ^= bit
    tree = np.zeros(len(noisy), dtype=np.intp)
    for e in range(m):
        tree |= joins[before[e], e]
    return tree


def _prim_masks(g: WeightedGraph, noisy: np.ndarray, coef: float,
                joins: np.ndarray) -> np.ndarray:
    """``pamst``'s tree of each row of ``noisy``, as an edge mask: the
    shortest-path tree from vertex 1 under lengths exp(coef * w~_e), by
    ``_dijkstra_trees``, the block form of the certified Dijkstra that
    ``pamst`` runs on one row."""
    noisy *= coef
    return _dijkstra_trees(g, noisy)[0] @ (1 << np.arange(g.m))


# each id the suite judges: the tree rule it applies to perturb_weights rows
# and the multiple of eps' it draws them at. The mutants, exponent eps' /
# delta_inf for eps' / (2 * delta_inf), are judged at eps' and must fail.
_JUDGED = {"perturb": (_kruskal_masks, 1.0), "kruskal": (_kruskal_masks, 1.0),
           "onepass": (_kruskal_masks, 1.0), "mutant": (_kruskal_masks, 2.0),
           "pamst": (_prim_masks, 1.0), "pamst-mutant": (_prim_masks, 2.0)}


def _tally_trees(g: WeightedGraph, rule, eps_prime: float, delta_inf: float,
                 trials: int, stream: RngStream, joins: np.ndarray) -> dict[frozenset, int]:
    """The tree tally of ``trials`` successive releases on ``stream`` that
    each draw ``perturb_weights(g, eps_prime, delta_inf, stream)`` and
    release ``rule``'s tree of it, given g's ``join_table``. The noise
    comes in blocks of ``perturb_weights`` rows, row t being the
    vector that release t would draw, and ``rule`` maps a whole block to one
    edge mask per row, with coef = eps' / (2 * delta_inf).
    """
    block = max(1, _BLOCK_VARIATES // g.m)
    coef = eps_prime / (2.0 * delta_inf)
    tally = np.zeros(len(joins), dtype=np.int64)
    for start in range(0, trials, block):
        noisy = perturb_weights(g, eps_prime, delta_inf, stream,
                                rows=min(block, trials - start))
        tally += np.bincount(rule(g, noisy, coef, joins), minlength=len(tally))
    return by_edge_set(tally, np.flatnonzero(tally))


def tree_distribution_test(g: WeightedGraph, eps_prime: float, trials: int,
                           alpha: float, master_seed: int = 0,
                           mechanisms=EQUIV_MECHANISMS) -> dict[str, EquivalenceResult]:
    """Tally each id's trees and chi-square them against the exact tree
    distribution of its rule in ``_JUDGED`` at eps': the Prim-cut one for
    ``pamst`` and ``pamst-mutant``, private Kruskal's for the others.
    ``sealfon-laplace`` and ``sealfon-gauss`` have no exact tree
    distribution and are refused before any draw.

    Id idx draws from stream (master_seed, (idx,)), tallied in bulk by
    ``_tally_trees`` with the same trees as one call per trial. The tally
    and the Kruskal oracle read one join table.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 < eps_prime < math.inf:  # also false for NaN
        raise ValueError(f"eps_prime must be positive and finite, got {eps_prime}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    for mech in mechanisms:
        if mech in ("sealfon-laplace", "sealfon-gauss"):  # release the noisy vector
            raise ValueError(f"{mech!r} has no exact tree distribution to test against")
        if mech not in _JUDGED:
            raise UnknownMechanismError(f"unknown mechanism {mech!r}")
    joins = join_table(g)  # needs m <= exact.MAX_EDGES
    rounds = g.n - 1
    budget = PrivacyBudget.from_rho(rounds * eps_prime ** 2 / 2.0, 1e-6, g.delta_inf)
    eps_used = budget.per_round(rounds)  # bit-identical to what mechanisms derive
    oracle = {}  # each rule's oracle is computed once, and only if an id needs it
    out: dict[str, EquivalenceResult] = {}
    for idx, mech in enumerate(mechanisms):
        rule, factor = _JUDGED[mech]
        if rule not in oracle:
            oracle[rule] = (prim_tree_distribution(g, eps_used, g.delta_inf) if rule is _prim_masks
                            else exact_tree_distribution(g, eps_used, g.delta_inf, joins=joins))
        counts = _tally_trees(g, rule, factor * eps_used, budget.delta_inf, trials,
                              RngStream(master_seed, (idx,)), joins)
        chi = chi_square_gof(counts, oracle[rule], alpha)
        out[mech] = EquivalenceResult(mechanism=mech, counts=counts, chi=chi)
    return out


# -- CSV emission ------------------------------------------------------------

def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _report_rows(report: RunReport):
    b = report.budget
    for r in report.records:
        yield (report.mechanism, report.n, report.m, report.density,
               b.epsilon, b.delta, b.rho, report.eps_prime(), b.delta_inf,
               r.trial, report.master_seed, r.true_weight, r.private_weight,
               r.error, r.runtime_ns)


def emit_csv(report_or_sweep, path):
    """Write a RunReport (one row per trial) or a DensitySweepResult
    (per-trial rows with a leading sweep_param column) as CSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if isinstance(report_or_sweep, RunReport):
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in _report_rows(report_or_sweep):
                fh.write(",".join(_format(v) for v in row) + "\n")
        elif isinstance(report_or_sweep, DensitySweepResult):
            fh.write(",".join(("sweep_param",) + CSV_COLUMNS) + "\n")
            for (p, _), report in sorted(report_or_sweep.reports.items(),
                                         key=lambda kv: (kv[0][0], kv[0][1])):
                for row in _report_rows(report):
                    fh.write(",".join(_format(v) for v in (p,) + row) + "\n")
        else:
            raise TypeError(f"cannot emit {type(report_or_sweep).__name__} as CSV")


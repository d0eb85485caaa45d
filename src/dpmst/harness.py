"""Experiment runner: trial execution, aggregation, CSV emission, and the
distribution-equivalence suite.

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
from .exact import (MAX_ITEMS, ChiSquareResult, SizeGuardError, chi_square_gof,
                    exact_tree_distribution)
from .graph import DisjointSets, WeightedGraph, build_graph, tree_weight
from .instances import erdos_renyi_instance
from .mechanisms import (MECHANISMS, MechanismResult, UnknownMechanismError,
                         _noisy_kruskal, kruskal_sampling_weights, perturb_weights,
                         run_mechanism)
from .rng import RngStream
from .sampling import SamplingTree, sum_tree

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
                      noisy_true_floor) -> TrialRecord:
    stream = RngStream(master_seed, (trial,))
    result = run_mechanism(mechanism_id, g, budget, stream)
    private_weight = tree_weight(g, result.tree)
    error = private_weight - true_weight
    if error < -1e-9:
        raise RuntimeError(
            f"private tree beat the exact MST by {-error}; MST oracle is broken")
    if result.noisy_weights is not None:
        # the returned tree must be minimal under its own noisy weights
        ids = np.fromiter(result.tree.edge_ids, dtype=np.int64) - 1
        got = float(result.noisy_weights[ids].sum())
        ref = noisy_true_floor(result.noisy_weights)
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
    true_tree = g.mst
    true_weight = tree_weight(g, true_tree)
    true_ids = np.fromiter(true_tree.edge_ids, dtype=np.int64) - 1

    def noisy_true_floor(noisy):
        return float(noisy[true_ids].sum())

    report = RunReport(mechanism=mechanism_id, n=g.n, m=g.m, budget=budget,
                       master_seed=master_seed)
    for i in range(trials):
        report.records.append(_run_single_trial(
            g, mechanism_id, budget, master_seed, i, true_weight, noisy_true_floor))
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
    budget_rho: float


def _quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = np.quantile(np.asarray(values, dtype=float), [0.25, 0.5, 0.75])
    return float(q1), float(q2), float(q3)


def density_sweep(n: int, densities, rho: float, trials: int, master_seed: int,
                  delta: float = 1e-6, delta_inf: float = 0.1,
                  wmin: float = 0.0, wmax: float = 100.0,
                  mechanisms=SWEEP_MECHANISMS) -> DensitySweepResult:
    """Weight-ratio comparison across graph densities, one row per (p, mechanism).

    For each density p, one connected G(n, p) instance with U(wmin, wmax)
    weights is generated; every mechanism then runs ``trials`` times on it and
    the median/IQR of the private-to-true weight ratio is tabulated.
    """
    budget = PrivacyBudget.from_rho(rho, delta, delta_inf)
    rows: list[SweepRow] = []
    reports: dict[tuple[float, str], RunReport] = {}
    for j, p in enumerate(densities):
        gen_stream = RngStream(master_seed, (1, j))
        g = erdos_renyi_instance(n, p, wmin, wmax, gen_stream)
        for kdx, mech in enumerate(mechanisms):
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
    return DensitySweepResult(rows=rows, reports=reports, budget_rho=rho)


# -- equivalence suite -------------------------------------------------------

EQUIV_FAMILIES = {
    "k3": (3, [(1, 2), (2, 3), (1, 3)], [1.0, 2.0, 3.0]),
    "k4": (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
           [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
}

EQUIV_MECHANISMS = ("perturb", "kruskal", "onepass")


def family_graph(family: str) -> WeightedGraph:
    try:
        n, edges, weights = EQUIV_FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; known: {sorted(EQUIV_FAMILIES)}") from None
    return build_graph(n, edges, weights, delta_inf=1.0)


def _wrong_exponent_mst(g, budget, stream) -> MechanismResult:
    """Deliberately broken sampler: exponent eps' instead of eps'/2.

    exp(-eps' * w / delta_inf) is the race at twice the per-round budget.
    Kept for suite calibration; the goodness-of-fit test must reject it.
    """
    return _noisy_kruskal(g, 2.0 * budget.per_round(g.n - 1), budget.delta_inf, stream)


_EXTRA_MECHANISMS = {"mutant": _wrong_exponent_mst}

# the ids whose body is _noisy_kruskal, each with the multiple of eps' it
# perturbs at; tree_distribution_test tallies their trials in bulk
_NOISY_KRUSKAL_FACTORS = {"perturb": 1.0, "onepass": 1.0, "mutant": 2.0}

# noise variates per block of the noise-then-Kruskal tally (2 MiB of
# doubles); the private-Kruskal tally sizes its blocks from it too
_BLOCK_VARIATES = 1 << 18


@dataclass
class EquivalenceResult:
    mechanism: str
    counts: dict[frozenset, int]
    chi: ChiSquareResult

    @property
    def passed(self) -> bool:
        return self.chi.passed


def _join_table(g: WeightedGraph) -> np.ndarray:
    """Kruskal's acceptance test on g (m <= ``exact.MAX_ITEMS``) as a table:
    ``joins[A, e]`` is 1 << e if edge e joins two trees of the forest with
    edge mask A, else 0, so a scan step is ``A |= joins[A, e]``."""
    m = g.m
    if m > MAX_ITEMS:
        raise SizeGuardError(f"the join table needs m <= {MAX_ITEMS}, got {m}")
    u, v = g.u_arr.tolist(), g.v_arr.tolist()
    joins = np.empty((1 << m, m), dtype=np.intp)
    for mask in range(1 << m):
        ds = DisjointSets(g.n)
        ds.join(((e, u[e], v[e]) for e in range(m) if mask >> e & 1), m)
        joins[mask] = [1 << e if ds.find(u[e]) != ds.find(v[e]) else 0
                       for e in range(m)]
    return joins


def _tree_counts(tally: np.ndarray) -> dict[frozenset, int]:
    """The trees of a tally indexed by edge mask, as 1-based edge id sets."""
    m = len(tally).bit_length() - 1
    return {frozenset(e + 1 for e in range(m) if mask >> e & 1): int(tally[mask])
            for mask in np.flatnonzero(tally).tolist()}


def _tally_noisy_kruskal(g: WeightedGraph, eps_prime: float, delta_inf: float,
                         trials: int, stream: RngStream,
                         joins: np.ndarray | None = None) -> dict[frozenset, int]:
    """The tree tally of ``trials`` successive ``_noisy_kruskal`` calls on
    ``stream``, with Kruskal run over every noise row at once.

    The noise comes in blocks of ``perturb_weights`` rows, row t being the
    vector that call t would draw. Each row's stable argsort is the scan
    order of ``kruskal_mst``, ties (-inf ones included) broken by edge id;
    the m scan steps then run over all rows together, one lookup in the
    join table of ``_join_table`` each.
    """
    if joins is None:
        joins = _join_table(g)
    block = max(1, _BLOCK_VARIATES // g.m)
    tally = np.zeros(len(joins), dtype=np.int64)
    for start in range(0, trials, block):
        noisy = perturb_weights(g, eps_prime, delta_inf, stream,
                                rows=min(block, trials - start))
        accepted = np.zeros(len(noisy), dtype=np.intp)
        for e in np.argsort(noisy, axis=1, kind="stable").T:
            accepted |= joins[accepted, e]
        tally += np.bincount(accepted, minlength=len(tally))
    return _tree_counts(tally)


def _tally_private_kruskal(g: WeightedGraph, budget: PrivacyBudget, trials: int,
                           stream: RngStream, joins: np.ndarray) -> dict[frozenset, int]:
    """The tree tally of ``trials`` successive ``private_kruskal_mst`` calls
    on ``stream``, one table lookup per draw.

    Each call reads one uniform per draw, and ``stream.uniform(size)`` gives
    the same values in the same order, so a block of uniforms is read as
    the calls would read it. The run that starts at position p of the block
    takes d(p) <= m draws; it is computed for every p at once, one
    vectorized draw at a time, from its state: D, the edges drawn, and A,
    those accepted. ``sums[D]`` is the sum tree that the call samples from
    in state D, as ``sum_tree`` builds it from D's live leaves, and
    ``joins[A, e]``, from ``_join_table(g)``, the call's acceptance test.
    Trial t then starts where trial t-1 ended. The block's tail, which lacks
    m uniforms of lookahead, is carried into the next block.
    """
    m, need = g.m, g.n - 1
    in_mask = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1 == 1
    sums = sum_tree(np.where(in_mask, 0.0, kruskal_sampling_weights(g, budget)))
    # a position holds about 16 words of run state while it is evaluated,
    # so a block of _BLOCK_VARIATES / 16 uniforms also takes about 2 MiB
    block = max(_BLOCK_VARIATES >> 4, 2 * m)
    tally = np.zeros(1 << m, dtype=np.int64)
    unif = np.empty(0)
    while trials:
        # trials * m uniforms always suffice, as no call draws more than m
        fresh = min(block, trials * m) - len(unif)
        unif = np.concatenate((unif, stream.uniform(fresh)))
        starts = len(unif) - m + 1  # positions with m uniforms of lookahead
        accepted = np.empty(starts, dtype=np.intp)  # A at the end of each run
        steps = np.empty(starts, dtype=np.intp)  # d(p)
        # the runs still going: their start, D, A and number accepted
        pos = np.arange(starts)
        d = np.zeros(starts, dtype=np.intp)
        a = np.zeros(starts, dtype=np.intp)
        k = np.zeros(starts, dtype=np.intp)
        for j in range(m):
            e = SamplingTree.sample_rows(sums, d, unif[pos + j])
            d |= 1 << e
            bit = joins[a, e]
            a |= bit
            k += bit != 0
            if j + 1 < need:  # no run ends before n-1 draws
                continue
            end = k == need
            accepted[pos[end]] = a[end]
            steps[pos[end]] = j + 1
            live = ~end
            pos, d, a, k = pos[live], d[live], a[live], k[live]
            if not pos.size:
                break
        steps = steps.tolist()
        p, chain = 0, []
        while trials and p < starts:
            chain.append(p)
            p += steps[p]
            trials -= 1
        tally += np.bincount(accepted[chain], minlength=len(tally))
        unif = unif[p:]
    return _tree_counts(tally)


def tree_distribution_test(g: WeightedGraph, eps_prime: float, trials: int,
                           alpha: float, master_seed: int = 0,
                           mechanisms=EQUIV_MECHANISMS) -> dict[str, EquivalenceResult]:
    """Tally each mechanism's trees and chi-square them against the exact
    product-formula tree distribution.

    Mechanism idx draws from stream (master_seed, (idx,)). The input
    perturbation ids (``_NOISY_KRUSKAL_FACTORS``) are tallied in bulk by
    ``_tally_noisy_kruskal`` and ``kruskal`` by ``_tally_private_kruskal``,
    each with the same trees as one call per trial, from one join table.
    Every other id runs once per trial through its registry.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 < eps_prime < math.inf:  # also false for NaN
        raise ValueError(f"eps_prime must be positive and finite, got {eps_prime}")
    joins = _join_table(g)  # the exact oracle needs m <= MAX_ITEMS too
    rounds = g.n - 1
    budget = PrivacyBudget.from_rho(rounds * eps_prime ** 2 / 2.0, 1e-6, g.delta_inf)
    eps_used = budget.per_round(rounds)  # bit-identical to what mechanisms derive
    exact = exact_tree_distribution(g, eps_used, g.delta_inf)
    out: dict[str, EquivalenceResult] = {}
    for idx, mech in enumerate(mechanisms):
        fn = _EXTRA_MECHANISMS.get(mech) or MECHANISMS.get(mech)
        if fn is None:
            raise UnknownMechanismError(f"unknown mechanism {mech!r}")
        stream = RngStream(master_seed, (idx,))
        factor = _NOISY_KRUSKAL_FACTORS.get(mech)
        if factor is not None:
            counts = _tally_noisy_kruskal(g, factor * eps_used, budget.delta_inf,
                                          trials, stream, joins)
        elif mech == "kruskal":
            counts = _tally_private_kruskal(g, budget, trials, stream, joins)
        else:
            counts = {}
            for _ in range(trials):
                tree = fn(g, budget, stream).tree
                counts[tree.edge_ids] = counts.get(tree.edge_ids, 0) + 1
        chi = chi_square_gof(counts, exact, alpha)
        out[mech] = EquivalenceResult(mechanism=mech, counts=counts, chi=chi)
    return out


def equivalence_suite(family: str, eps_prime: float, trials: int, alpha: float,
                      master_seed: int = 0,
                      mechanisms=EQUIV_MECHANISMS) -> dict[str, EquivalenceResult]:
    """tree_distribution_test on a named small-graph family (k3 or k4)."""
    return tree_distribution_test(family_graph(family), eps_prime, trials,
                                  alpha, master_seed, mechanisms)


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


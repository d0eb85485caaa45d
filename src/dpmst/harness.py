"""Experiment runner: trial execution, aggregation, CSV emission, and the
distribution-equivalence suite.

Reports are a pure function of (instance, mechanism id, budget, master seed,
trials): trial i always uses the stream derived as (master_seed, (i,)), so
trials may be executed in any order, or in parallel, with identical records.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .accounting import PrivacyBudget
from .exact import ChiSquareResult, chi_square_gof, exact_tree_distribution
from .graph import WeightedGraph, build_graph, kruskal_mst, tree_weight
from .instances import erdos_renyi_instance
from .mechanisms import MECHANISMS, MechanismResult, UnknownMechanismError, run_mechanism
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
    true_tree = kruskal_mst(g)
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

    Kept for suite calibration; the goodness-of-fit test must reject it.
    """
    t0 = time.perf_counter_ns()
    eps_prime = budget.per_round(g.n - 1)
    w = g.weights
    z = stream.exponential(1.0, size=g.m)
    with np.errstate(divide="ignore"):
        scores = np.log(z) + eps_prime * (w - w.min()) / budget.delta_inf
    tree = kruskal_mst(g, scores)
    return MechanismResult(tree=tree, wall_time_ns=time.perf_counter_ns() - t0)


_EXTRA_MECHANISMS = {"mutant": _wrong_exponent_mst}


@dataclass
class EquivalenceResult:
    mechanism: str
    counts: dict[frozenset, int]
    chi: ChiSquareResult

    @property
    def passed(self) -> bool:
        return self.chi.passed


def tree_distribution_test(g: WeightedGraph, eps_prime: float, trials: int,
                           alpha: float, master_seed: int = 0,
                           mechanisms=EQUIV_MECHANISMS) -> dict[str, EquivalenceResult]:
    """Tally each mechanism's trees and chi-square them against the exact
    product-formula tree distribution."""
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
        counts: dict[frozenset, int] = {}
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


# -- selftest ----------------------------------------------------------------

def selftest(verbose: bool = True) -> bool:
    """Abbreviated verification pass over the core claims; True iff all pass.

    The statistical checks run at reduced trial counts so the whole pass stays
    in the tens of seconds; the pytest suite is the full-strength version.
    """
    from . import selfcheck

    results = selfcheck.run_all()
    ok = True
    for name, passed, detail in results:
        ok = ok and passed
        if verbose:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return ok

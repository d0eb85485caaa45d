"""The benchmark's workloads: inputs made from a seed, one timed pass of calls
into dpmst, and the checks every released tree must pass.

Program calls go through module attributes (``harness.run_trials``), never
through names bound here, so the traced run's wrappers see them. The checks
use the references bound at import, which the traced run leaves alone.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from dpmst import harness, instances, mechanisms
from dpmst.accounting import PrivacyBudget
from dpmst.exact import chi_square_gof, exact_tree_distribution
from dpmst.graph import is_spanning_tree, kruskal_mst, tree_weight
from dpmst.rng import RngStream

EQUIV_EPS_PRIME = 1.0
EQUIV_ALPHA = 0.001
# The run's pooled chi-square gate tests the three correct mechanisms on two
# families; at 1e-6 each, a correct build fails about one run in 170,000,
# while one pass of the mutant on k3 already gives about twenty times the
# threshold. At check-equiv's 0.001, one run in 170 would fail by chance.
GATE_ALPHA = 1e-6
WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``source`` says how the instances are made: ``file`` writes an ER instance
    with the benchmark's own generator and loads it with ``read_instance``
    (the ``dpmst run`` path); ``generate`` calls ``erdos_renyi_instance`` (the
    ``dpmst sweep-density`` cell); ``families`` builds the k3 and k4
    equivalence graphs (the ``dpmst check-equiv`` path).
    """

    name: str
    why: str
    source: str
    mechanisms: tuple[str, ...]
    trials: int  # per mechanism per pass; per family and mechanism for ``families``
    n: int = 0
    p: float = 1.0


WORKLOADS = {w.name: w for w in (
    Workload("er2048-oneshot",
             "dpmst run path: one noise pass plus one exact Kruskal per release "
             "on a 209k-edge ER graph; sampling and per-round selection do nothing",
             "file", ("perturb", "onepass", "sealfon-gauss"), trials=4, n=2048, p=0.1),
    Workload("er256-select",
             "sweep-density p=1 cell: n-1 rounds of private selection per release on "
             "K256; exact Kruskal runs once per call for the true tree",
             "generate", ("kruskal", "pamst"), trials=4, n=256, p=1.0),
    Workload("equiv-small",
             "check-equiv path on k3 and k4: per-call Python overhead is all the "
             "work, so fixed costs that big-array speed-ups add show here",
             "families", ("perturb", "kruskal", "onepass", "mutant"), trials=5000),
)}


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed keyed by (seed, path), independent across paths."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return int(ss.generate_state(1)[0])


def write_er_instance(path: Path, n: int, p: float, seed: int) -> int:
    """Write a connected G(n, p) with U(0, 100) weights in the edge-list format.

    Rows are drawn one vertex at a time so the benchmark process stays small;
    the graph is redrawn (with the next sub-seed) until connected. Returns m.
    """
    for attempt in range(100):
        gen = np.random.Generator(np.random.Philox(derive_seed(seed, 2, attempt)))
        us, vs, ws = [], [], []
        for u in range(1, n):
            keep = np.flatnonzero(gen.random(n - u) < p)
            us.append(np.full(len(keep), u))
            vs.append(keep + u + 1)
            ws.append(100.0 * gen.random(len(keep)))
        u_arr, v_arr, w_arr = (np.concatenate(a) for a in (us, vs, ws))
        adj = coo_matrix((np.ones(len(u_arr)), (u_arr - 1, v_arr - 1)), shape=(n, n))
        if connected_components(adj, directed=False)[0] == 1:
            break
    else:
        raise RuntimeError(f"no connected G({n}, {p}) in 100 draws")
    lines = [f"{n} {len(u_arr)} 1.0"]
    lines += [f"{u} {v} {w!r}" for u, v, w in zip(u_arr.tolist(), v_arr.tolist(), w_arr.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(u_arr)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=WEIGHT_TOL)


@dataclass
class Prepared:
    """A workload's instances and budget, ready for timed passes."""

    workload: Workload
    seed: int
    graphs: dict  # label -> WeightedGraph
    budget: PrivacyBudget | None = None


def setup(workload: Workload, seed: int, instance_path: Path | None) -> Prepared:
    """Everything before the first private trial; ``setup_s`` times this call.

    Lazy caches the workload's mechanisms read (``g.incident`` for private
    Kruskal) are filled here so that the first timed pass does not pay them.
    """
    if workload.source == "file":
        g = instances.read_instance(instance_path)
        graphs = {"er": g}
        budget = PrivacyBudget.from_eps_delta(1.0, 1e-6, g.delta_inf)
    elif workload.source == "generate":
        g = instances.erdos_renyi_instance(workload.n, workload.p, 0.0, 100.0,
                                           RngStream(seed, (1,)))
        graphs = {"er": g}
        budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
    elif workload.source == "families":
        graphs = {fam: harness.family_graph(fam) for fam in ("k3", "k4")}
        budget = None
    else:
        raise ValueError(f"unknown source {workload.source!r}")
    if "kruskal" in workload.mechanisms:
        for g in graphs.values():
            getattr(g, "incident", None)
    return Prepared(workload, seed, graphs, budget)


class Gate:
    """Counts every check made on the program's outputs and keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str, count: int = 1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(what)


@contextmanager
def capture_releases(mech_ids):
    """Record each MechanismResult the registry hands out, per mechanism id."""
    registry = mechanisms.MECHANISMS
    released = {m: [] for m in mech_ids}
    saved = {m: registry[m] for m in mech_ids}

    def recorder(mech, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            released[mech].append(result)
            return result
        return call

    for m in mech_ids:
        registry[m] = recorder(m, saved[m])
    try:
        yield released
    finally:
        registry.update(saved)


def tree_key(ids) -> str:
    return ",".join(map(str, sorted(ids)))


def digest(parts) -> str:
    """Short hash of a sequence of strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() + b";")
    return h.hexdigest()[:16]


@dataclass
class PassResult:
    """Outside timings of one pass: every program call, and the release calls."""

    wall_ns: int = 0
    release_ns: int = 0
    releases: int = 0
    mech_ns: dict = field(default_factory=dict)  # mechanism -> run_trials ns
    digests: dict = field(default_factory=dict)  # mechanism -> tree digest


class Bench:
    """Runs timed passes of one prepared workload and checks their outputs."""

    def __init__(self, prep: Prepared, gate: Gate, work_dir: Path):
        self.prep = prep
        self.gate = gate
        self.work_dir = work_dir
        self.true_weight = {label: tree_weight(g, kruskal_mst(g))
                            for label, g in prep.graphs.items()}
        self.pooled = {}  # (family, mechanism) -> Counter of trees

    def run_pass(self, k: int) -> PassResult:
        if self.prep.workload.source == "families":
            return self._equiv_pass(k)
        return self._trials_pass(k)

    def _trials_pass(self, k: int) -> PassResult:
        wl, g, budget = self.prep.workload, self.prep.graphs["er"], self.prep.budget
        out = PassResult()
        for j, mech in enumerate(wl.mechanisms):
            csv_path = self.work_dir / f"{wl.name}-{mech}.csv"
            with capture_releases([mech]) as released:
                t0 = time.perf_counter_ns()
                try:
                    report = harness.run_trials(g, mech, budget, wl.trials,
                                                derive_seed(self.prep.seed, 3, k, j))
                except RuntimeError as exc:  # the harness's own checks
                    report = None
                    self.gate.check(False, f"{mech}: run_trials raised {exc}")
                t1 = time.perf_counter_ns()
                if report is not None:
                    harness.emit_csv(report, csv_path)
                t2 = time.perf_counter_ns()
            out.wall_ns += t2 - t0
            out.release_ns += t1 - t0
            out.mech_ns[mech] = t1 - t0
            trees = [r.tree.edge_ids for r in released[mech]]
            out.digests[mech] = digest(tree_key(ids) for ids in trees)
            if report is None:
                self._check_trees(g, self.true_weight["er"], Counter(trees), mech)
                continue
            out.releases += len(report.records)
            self._check_report(g, mech, report, trees, csv_path)
        return out

    def _check_report(self, g, mech, report, trees, csv_path):
        gate = self.gate
        gate.check(len(trees) == len(report.records) == self.prep.workload.trials,
                   f"{mech}: {len(trees)} releases seen for {len(report.records)} records")
        # every record that came back passed the harness's minimality check
        gate.check(True, "harness checks", count=len(report.records))
        for ids, rec in zip(trees, report.records):
            gate.check(_close(tree_weight(g, ids), rec.private_weight),
                       f"{mech} trial {rec.trial}: record weight differs from its tree")
            gate.check(_close(rec.true_weight, self.true_weight["er"]),
                       f"{mech} trial {rec.trial}: wrong true MST weight")
        self._check_trees(g, self.true_weight["er"], Counter(trees), mech)
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        gate.check(len(rows) == len(report.records) and all(
                   _close(float(r["private_weight"]), rec.private_weight)
                   for r, rec in zip(rows, report.records)),
                   f"{mech}: CSV rows disagree with the report")

    def _check_trees(self, g, true_w, counts: Counter, what: str):
        for ids, c in counts.items():
            self.gate.check(is_spanning_tree(g, ids), f"{what}: not a spanning tree", c)
            self.gate.check(tree_weight(g, ids) >= true_w - WEIGHT_TOL,
                            f"{what}: tree lighter than the exact MST", c)

    def _equiv_pass(self, k: int) -> PassResult:
        wl = self.prep.workload
        out = PassResult()
        for i, (fam, g) in enumerate(self.prep.graphs.items()):
            t0 = time.perf_counter_ns()
            results = harness.tree_distribution_test(
                g, EQUIV_EPS_PRIME, wl.trials, EQUIV_ALPHA,
                derive_seed(self.prep.seed, 3, k, i), mechanisms=wl.mechanisms)
            dt = time.perf_counter_ns() - t0
            out.wall_ns += dt
            out.release_ns += dt
            out.releases += wl.trials * len(wl.mechanisms)
            for mech in wl.mechanisms:
                counts = Counter(results[mech].counts)
                self.gate.check(sum(counts.values()) == wl.trials,
                                f"{fam}/{mech}: {sum(counts.values())} trees tallied")
                self._check_trees(g, self.true_weight[fam], counts, f"{fam}/{mech}")
                self.pooled.setdefault((fam, mech), Counter()).update(counts)
                out.digests[f"{mech}.{fam}"] = digest(sorted(
                    f"{tree_key(ids)}:{c}" for ids, c in counts.items()))
        return out

    def finish(self) -> list[str]:
        """Gates over the whole run; returns one line per chi-square test."""
        lines = []
        for (fam, mech), counts in sorted(self.pooled.items()):
            g = self.prep.graphs[fam]
            rounds = g.n - 1
            budget = PrivacyBudget.from_rho(rounds * EQUIV_EPS_PRIME ** 2 / 2.0, 1e-6,
                                            g.delta_inf)
            exact = exact_tree_distribution(g, budget.per_round(rounds), g.delta_inf)
            chi = chi_square_gof(counts, exact, GATE_ALPHA)
            if mech in harness.EQUIV_MECHANISMS:
                expect = "pass"
                self.gate.check(chi.passed, f"{fam}/{mech}: chi2 {chi.statistic:.1f} "
                                f"> {chi.threshold:.1f}")
            elif np.ptp(g.weights) > 0:
                # the mutant's exponent only matters when weights differ
                expect = "reject"
                self.gate.check(not chi.passed, f"{fam}/{mech}: mutant not rejected "
                                f"(chi2 {chi.statistic:.1f})")
            else:
                expect = "either"
            lines.append(f"chi2 {fam}/{mech}: {chi.statistic:.1f} (df={chi.df}, "
                         f"threshold {chi.threshold:.1f} at alpha={GATE_ALPHA:g}, "
                         f"{sum(counts.values())} trees, expect {expect})")
        return lines

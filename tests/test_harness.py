import math
import re
import subprocess
import sys

import numpy as np
import pytest

from dpmst import exact, graph, harness, mechanisms
from dpmst.accounting import PrivacyBudget
from dpmst.exact import (MAX_EDGES, SizeGuardError, chi_square_gof, join_table,
                         prim_tree_distribution)
from dpmst.graph import SpanningTree, build_graph, kruskal_mst, tree_weight
from dpmst.harness import (CSV_COLUMNS, EQUIV_MECHANISMS, RunReport, TrialRecord,
                           _kruskal_masks, _prim_masks, _run_single_trial, _tally_trees,
                           density_sweep, emit_csv, family_graph, run_trials,
                           tree_distribution_test)
from dpmst.instances import erdos_renyi_instance, write_instance
from dpmst.mechanisms import (IDS, MECHANISMS, MechanismResult, NoisyWeights,
                              UnknownMechanismError, _prim_tree, input_perturbation_mst)
from dpmst.rng import RngStream

from .test_graph import k4, triangle
from .test_mechanisms import (above_size_rule, budget_for_eps_prime, k5,
                              light_triangles_heavy_bridges,
                              parallel_edges, tree_counts, wrong_exponent)


@pytest.fixture(scope="module")
def er_graph():
    return erdos_renyi_instance(16, 0.6, 0, 100, RngStream(1))


BUDGET = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)


def true_tree(g):
    """The exact MST's sorted 0-based ids and their m-long indicator, as
    ``run_trials`` hands them to each trial."""
    ids = np.sort(np.fromiter(g.mst.edge_ids, dtype=np.int64) - 1)
    mask = np.zeros(g.m, dtype=bool)
    mask[ids] = True
    return ids, mask


class TestRunTrials:
    def test_deterministic_given_seed(self, er_graph):
        a = run_trials(er_graph, "perturb", BUDGET, 10, 42)
        b = run_trials(er_graph, "perturb", BUDGET, 10, 42)
        for ra, rb in zip(a.records, b.records):
            assert (ra.trial, ra.true_weight, ra.private_weight, ra.error) == \
                (rb.trial, rb.true_weight, rb.private_weight, rb.error)

    def test_trials_reconstructable_out_of_order(self, er_graph):
        # records depend only on (graph, mechanism, budget, seed, index)
        from dpmst.graph import kruskal_mst, tree_weight
        report = run_trials(er_graph, "onepass", BUDGET, 8, 7)
        ref = report.records[5]
        tw = tree_weight(er_graph, kruskal_mst(er_graph))
        lone = _run_single_trial(er_graph, "onepass", BUDGET, 7, 5, tw, *true_tree(er_graph))
        assert (lone.private_weight, lone.error) == (ref.private_weight, ref.error)

    def test_huge_budget_zero_error(self, er_graph):
        report = run_trials(er_graph, "perturb",
                            PrivacyBudget.from_rho(1e12, 1e-6, 0.1), 10, 3)
        assert report.mean_error() < 1e-6

    def test_aggregates_are_bookkeeping(self, er_graph):
        report = run_trials(er_graph, "kruskal", BUDGET, 12, 9)
        errors = sorted(r.error for r in report.records)
        assert report.mean_error() == pytest.approx(sum(errors) / len(errors))
        assert report.median_error() == pytest.approx((errors[5] + errors[6]) / 2)
        lo, hi = report.ci95_error()
        assert lo <= report.mean_error() <= hi

    @pytest.mark.parametrize("trials", [5, 6])
    def test_median_is_the_middle_quartile(self, er_graph, trials):
        # one rule for every median: the sweep table's and median_error()'s
        report = run_trials(er_graph, "perturb", BUDGET, trials, 9)
        q1, median, q3 = RunReport.quartiles(report.errors)
        assert report.median_error() == median
        assert q1 <= median <= q3

    def test_errors_never_negative(self, er_graph):
        for mech in ("perturb", "kruskal", "onepass", "pamst", "sealfon-gauss"):
            report = run_trials(er_graph, mech, BUDGET, 5, 11)
            assert all(e >= -1e-9 for e in report.errors)

    def test_unknown_mechanism(self, er_graph):
        with pytest.raises(UnknownMechanismError):
            run_trials(er_graph, "bogus", BUDGET, 1, 0)

    def test_true_mst_computed_once_per_graph(self, monkeypatch):
        g = erdos_renyi_instance(12, 0.7, 0, 100, RngStream(8))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return kruskal(*args, **kwargs)

        kruskal = graph.kruskal_mst
        monkeypatch.setattr(graph, "kruskal_mst", counting)
        # private kruskal itself runs no exact Kruskal
        a = run_trials(g, "kruskal", BUDGET, 3, 1)
        b = run_trials(g, "kruskal", BUDGET, 3, 2)
        assert len(calls) == 1
        assert a.records[0].true_weight == b.records[0].true_weight == \
            tree_weight(g, kruskal(g))

    def test_non_minimal_tree_rejected_under_minus_inf_reference(self, monkeypatch):
        # the true tree {1, 2} sums to -inf under these noisy weights, so no
        # relative tolerance may be added to it
        def heavy_tree(g, budget, stream):
            return MechanismResult(tree=SpanningTree(frozenset({2, 3})),
                                   noise=NoisyWeights(3, np.array([-np.inf, 0.0, 5.0])))

        monkeypatch.setitem(MECHANISMS, "perturb", heavy_tree)
        with pytest.raises(RuntimeError, match="non-minimal"):
            _run_single_trial(triangle(), "perturb", BUDGET, 0, 0, 3.0, *true_tree(triangle()))

    def test_non_minimal_tree_rejected_with_a_clamped_vector(self, monkeypatch):
        # above the size rule the record holds one clamp value, above every
        # revealed weight, for each unrevealed edge; a tree of clamped edges
        # outweighs the true tree, which holds some revealed ones
        g = above_size_rule()
        r = input_perturbation_mst(g, BUDGET, RngStream(43))
        revealed = np.zeros(g.m, dtype=bool)
        revealed[r.noise.ids] = True
        assert revealed.sum() < g.m // 2 and r.noise.values.max() < r.noise.clamp
        heavy = kruskal_mst(g, revealed.astype(float))

        def clamped_tree(g, budget, stream):
            return MechanismResult(tree=heavy, noise=r.noise)

        monkeypatch.setitem(MECHANISMS, "perturb", clamped_tree)
        with pytest.raises(RuntimeError, match="non-minimal"):
            _run_single_trial(g, "perturb", BUDGET, 0, 0, tree_weight(g, g.mst), *true_tree(g))

    def test_tree_naming_an_unrevealed_edge_rejected(self, monkeypatch):
        # a compact record of the triangle, whose true tree is {1, 2}. With
        # edges 1 and 2 recorded at 0 and 5, edge 3 sits at the clamp, 6:
        # {1, 3} sums to 6 against 5 and is rejected, though the recorded
        # value next to edge 3 (5) would let it pass. With edges 1 and 3
        # recorded at 0 and 1, the true tree's edge 2 is at the clamp, so
        # {1, 3} (1 against 6) passes
        g = triangle()
        for ids, values, tree, minimal in (([0, 1], [0.0, 5.0], {1, 3}, False),
                                           ([0, 1], [0.0, 5.0], {1, 2}, True),
                                           ([0, 2], [0.0, 1.0], {1, 3}, True)):
            noise = NoisyWeights(3, np.array(values), np.array(ids), 6.0)
            monkeypatch.setitem(MECHANISMS, "perturb", lambda g, budget, stream, tree=tree, noise=noise:
                                MechanismResult(tree=SpanningTree(frozenset(tree)), noise=noise))
            if minimal:
                _run_single_trial(g, "perturb", BUDGET, 0, 0, 3.0, *true_tree(g))
            else:
                with pytest.raises(RuntimeError, match="non-minimal"):
                    _run_single_trial(g, "perturb", BUDGET, 0, 0, 3.0, *true_tree(g))


def fixed_report(mechanism="pamst", seed=7, density=None):
    """A report with fixed records, runtimes included, so its CSV is fixed."""
    return RunReport(mechanism, 4, 6, PrivacyBudget.from_rho(1.0, 1e-6, 0.1), seed,
                     [TrialRecord(0, 6.0, 6.5, 0.5, 1234),
                      TrialRecord(1, 6.0, 7.25, 1.25, 987)], density=density)


class TestEmitCsv:
    def test_one_report_bytes_are_pinned(self, tmp_path):
        # the layout every CSV of runs has, p empty outside a sweep
        out = tmp_path / "r.csv"
        emit_csv(fixed_report(), out)
        assert out.read_bytes() == (
            b"mechanism,n,m,p,eps,delta,rho,eps_prime,delta_inf,trial,seed,"
            b"true_weight,private_weight,error,runtime_ns\n"
            b"pamst,4,6,,8.433844377699677,1e-06,1.0,0.816496580927726,0.1,0,7,"
            b"6.0,6.5,0.5,1234\n"
            b"pamst,4,6,,8.433844377699677,1e-06,1.0,0.816496580927726,0.1,1,7,"
            b"6.0,7.25,1.25,987\n")

    def test_list_is_one_header_then_each_body(self, tmp_path):
        a = fixed_report(density=0.5)
        b = fixed_report("perturb", 8, density=1.0)
        both, one_a, one_b = tmp_path / "ab.csv", tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv([a, b], both)
        emit_csv(a, one_a)
        emit_csv(b, one_b)
        header, *body_a = one_a.read_text().splitlines()
        _, *body_b = one_b.read_text().splitlines()
        assert both.read_text().splitlines() == [header] + body_a + body_b
        assert header == ",".join(CSV_COLUMNS)
        assert [line.split(",")[3] for line in body_a + body_b] == ["0.5"] * 2 + ["1.0"] * 2

    def test_header_and_shape(self, er_graph, tmp_path):
        report = run_trials(er_graph, "perturb", BUDGET, 4, 1)
        out = tmp_path / "r.csv"
        emit_csv(report, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5

    def test_same_report_emits_identical_bytes(self, er_graph, tmp_path):
        report = run_trials(er_graph, "perturb", BUDGET, 4, 1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(report, a)
        emit_csv(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_fixed_seed_runs_identical_outside_runtime_column(self, er_graph, tmp_path):
        paths = []
        for name in ("x.csv", "y.csv"):
            report = run_trials(er_graph, "onepass", BUDGET, 4, 5)
            p = tmp_path / name
            emit_csv(report, p)
            paths.append(p)

        def strip_runtime(path):
            rows = [line.split(",") for line in path.read_text().splitlines()]
            return [row[:-1] for row in rows]

        assert strip_runtime(paths[0]) == strip_runtime(paths[1])

    def test_values_parse_back_locale_free(self, er_graph, tmp_path):
        report = run_trials(er_graph, "perturb", BUDGET, 3, 2)
        out = tmp_path / "r.csv"
        emit_csv(report, out)
        header, *rows = out.read_text().splitlines()
        idx = header.split(",").index("error")
        for row in rows:
            float(row.split(",")[idx])  # must parse with C locale semantics


class TestDensitySweep:
    def test_table_shape_and_csv(self, tmp_path):
        reports = density_sweep(12, [0.5, 1.0], 1.0, 4, 3)
        assert len(reports) == 2 * 3
        assert {r.mechanism for r in reports} == {"perturb", "pamst",
                                                  "sealfon-gauss"}
        out = tmp_path / "sweep.csv"
        emit_csv(reports, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 3 * 4  # per-trial rows

    def test_reports_in_density_then_mechanism_order(self):
        reports = density_sweep(12, [1.0, 0.5], 1.0, 2, 3)
        assert [(r.density, r.mechanism) for r in reports] == [
            (p, mech) for p in (1.0, 0.5) for mech in harness.SWEEP_MECHANISMS]

    def test_repeated_density_refused_before_any_instance(self, tmp_path, capsys,
                                                          monkeypatch):
        from dpmst import cli

        # a repeated density used to print a row per cell while its reports,
        # keyed by (p, mechanism), kept only the last cell's trials
        def no_instance(*args, **kwargs):
            raise AssertionError("drew an instance for a refused density list")

        monkeypatch.setattr(harness, "erdos_renyi_instance", no_instance)
        with pytest.raises(ValueError, match="repeated: 0.5"):
            density_sweep(16, [0.5, 1.0, 0.5], 1.0, 2, 1)
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep-density", "--n", "16", "--densities", "0.5,0.5", "--rho", "1",
                         "--trials", "2", "--seed", "1", "--out", str(out)])
        assert (code, capsys.readouterr().out) == (1, "")
        assert not out.exists()

    @pytest.mark.parametrize("n, trials, densities, match", [
        (16, 2, [1.0, 1.5], "must lie in \\[0, 1\\]; got 1.5$"),
        (16, 2, [0.5, -0.1], "must lie in \\[0, 1\\]; got -0.1$"),
        (16, 2, [1.0, float("nan")], "must lie in \\[0, 1\\]; got nan$"),
        (16, 2, [1.0, 0.0], "density 0 is refused: G\\(16, 0\\)"),
        (1, 2, [0.5, 1.0], "n must be >= 2, got 1$"),
        (16, 0, [0.5, 1.0], "trials must be >= 1, got 0$")],
        ids=["above-one", "below-zero", "nan", "zero", "n-1", "trials-0"])
    def test_bad_density_refused_before_any_instance(self, n, trials, densities, match,
                                                     tmp_path, capsys, monkeypatch):
        from dpmst import cli

        # a bad density used to be refused only when its turn came, after
        # every cell before it had run; 0 passed the range check, though
        # G(n, 0) never connects for n >= 2. n = 1 used to fail in the
        # budget's rounds check, and trials = 0 in run_trials, each after
        # the first instance was drawn
        drawn = []
        monkeypatch.setattr(harness, "erdos_renyi_instance",
                            lambda *args, **kwargs: drawn.append(args))
        with pytest.raises(ValueError, match=match):
            density_sweep(n, densities, 1.0, trials, 1)
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep-density", "--n", str(n), "--densities",
                         ",".join(map(str, densities)), "--rho", "1", "--trials", str(trials),
                         "--seed", "1", "--out", str(out)])
        assert (code, capsys.readouterr().out) == (1, "")
        assert not out.exists()
        assert len(drawn) == 0


class TestEquivalenceSuite:
    def test_k3_all_mechanisms_pass(self):
        results = tree_distribution_test(family_graph("k3"), 1.0, 20000, 0.001, master_seed=13)
        assert set(results) == {"perturb", "kruskal", "onepass"}
        assert all(r.passed for r in results.values())

    def test_k5_family_separates_the_mutants(self):
        # the family is the graph the lazy samplers' tests run as k5
        g = family_graph("k5")
        ref = k5()
        assert np.array_equal(g.u_arr, ref.u_arr) and np.array_equal(g.v_arr, ref.v_arr)
        assert g.weights.tolist() == ref.weights.tolist()
        ids = EQUIV_MECHANISMS + ("pamst", "mutant", "pamst-mutant")
        results = tree_distribution_test(g, 1.0, 20000, 0.001, master_seed=1, mechanisms=ids)
        assert {mech for mech, r in results.items() if r.passed} == set(ids[:4])

    def test_wrong_exponent_mutant_fails(self):
        g = build_graph(3, [(1, 2), (2, 3), (1, 3)], [0.0, 2.0, 4.0])
        results = tree_distribution_test(g, 1.0, 20000, 0.001, master_seed=13,
                                         mechanisms=("mutant",))
        assert not results["mutant"].passed

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            tree_distribution_test(family_graph("k7"), 1.0, 100, 0.01)


class ZeroedExponential:
    """Stream stand-in whose exponential draws are an RngStream's, with each
    draw below ``cut`` replaced by exactly 0 (a -inf noisy weight)."""

    def __init__(self, stream, cut):
        self.stream, self.cut = stream, cut

    def exponential(self, rate=1.0, size=None):
        z = self.stream.exponential(rate, size)
        return np.where(z < self.cut, 0.0, z)

    # the noise's ln(Exp(1)), taken of the draws above
    ln_exponential = RngStream.ln_exponential


class CycledUniform:
    """Stream stand-in whose noise is ``RngStream.ln_exponential`` of
    uniform draws u that cycle through ``values``, ln(-ln u); it records
    the size of each draw."""

    def __init__(self, values):
        self.values, self.next, self.sizes = np.asarray(values, dtype=float), 0, []

    def ln_exponential(self, size):
        self.sizes.append(size)
        count = math.prod(np.atleast_1d(size))
        u = self.values[(self.next + np.arange(count)) % len(self.values)]
        self.next += count
        with np.errstate(divide="ignore"):
            return np.log(-np.log(u)).reshape(size)


TALLY_GRAPHS = {
    "k3": lambda: family_graph("k3"),
    "k4": lambda: family_graph("k4"),
    "k4-asymmetric": lambda: k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6]),
    "k3-mutant": lambda: triangle([0.0, 2.0, 4.0]),
    "parallel-edges": parallel_edges,
}

BULK = {"perturb": MECHANISMS["perturb"], "onepass": MECHANISMS["onepass"],
        "mutant": wrong_exponent, "kruskal": MECHANISMS["kruskal"]}

TALLY_CASES = [(name, mech) for name in sorted(TALLY_GRAPHS) for mech in sorted(BULK)]
# m = 8, and Kruskal's scan often reads and skips a triangle's third edge
TALLY_GRAPHS["light-triangles-heavy-bridges"] = light_triangles_heavy_bridges
TALLY_CASES.append(("light-triangles-heavy-bridges", "kruskal"))
# m = 15, the largest graph here
TALLY_GRAPHS["k6-asymmetric"] = lambda: build_graph(
    6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)],
    [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3, 2.3, 8.4, 6.2, 6.4, 3.3],
    delta_inf=1.0)
# the graph of TestPamst::test_heavy_then_light, on which Dijkstra's
# certificate refused all 50,000 rows of one eps' = 1 block
TALLY_GRAPHS["heavy-then-light"] = lambda: build_graph(
    4, [(1, 2), (2, 3), (2, 4), (3, 4)], [100.0, 0.0, 0.3, 0.1])
# all of these are below PAMST_RACE_MAX_N, so pamst runs the race on them,
# and the tally runs pamst's own rule on each row
BULK["pamst"] = MECHANISMS["pamst"]
TALLY_CASES += [(name, "pamst") for name in (
    "k3", "k4", "k4-asymmetric", "parallel-edges", "light-triangles-heavy-bridges",
    "k6-asymmetric", "heavy-then-light")]


def oracle(mech, g, eps_prime):
    """The exact tree distribution that ``mech`` is judged against."""
    if IDS[mech].rule is _prim_tree:
        return prim_tree_distribution(g, eps_prime, g.delta_inf)
    return exact.exact_tree_distribution(g, eps_prime, g.delta_inf)


class TestBulkTally:
    @pytest.mark.parametrize("name, mech", TALLY_CASES,
                             ids=[f"{name}-{mech}" for name, mech in TALLY_CASES])
    def test_same_tally_as_one_call_per_trial(self, name, mech, monkeypatch):
        g = TALLY_GRAPHS[name]()
        budget = budget_for_eps_prime(g, 1.0)
        for variates, trials in ((harness._BLOCK_VARIATES, 1500), (50, 1001)):
            # with 50 variates a noise block has 8 to 16 rows, none dividing
            # 1001, and a block of uniforms ends inside a run
            monkeypatch.setattr(harness, "_BLOCK_VARIATES", variates)
            for seed in (3, 4, 5):
                got = tree_distribution_test(g, 1.0, trials, 0.001, seed,
                                             mechanisms=(mech,))[mech]
                # the per-trial loop that the tally replaces
                ref = tree_counts(BULK[mech], g, budget, trials, RngStream(seed, (0,)))
                assert got.counts == ref
                assert got.chi == chi_square_gof(
                    ref, oracle(mech, g, budget.per_round(g.n - 1)), 0.001)

    @pytest.mark.parametrize("cut", [np.inf, 0.5])
    @pytest.mark.parametrize("name", ["k4", "k4-asymmetric", "parallel-edges"])
    def test_minus_inf_rows(self, name, cut, monkeypatch):
        # every draw 0, or about 40% of them: rows of -inf ties, which the
        # rank masks break by edge id, as kruskal_mst does, and which
        # send pamst's rows to the race
        g = TALLY_GRAPHS[name]()
        budget = budget_for_eps_prime(g, 1.0)
        monkeypatch.setattr(harness, "_BLOCK_VARIATES", 50)
        for rule, mech in ((_kruskal_masks, "perturb"), (_prim_masks, "pamst")):
            got = _tally_trees(g, rule, budget.per_round(g.n - 1), budget.delta_inf,
                               500, ZeroedExponential(RngStream(6), cut), join_table(g))
            ref = tree_counts(MECHANISMS[mech], g, budget, 500,
                              ZeroedExponential(RngStream(6), cut))
            assert got == ref
            if cut == np.inf and mech == "perturb":
                assert got == {graph.kruskal_mst(g, np.zeros(g.m)).edge_ids: 500}

    @pytest.mark.parametrize("seed", range(4))
    def test_kruskal_rule_is_kruskal_mst_row_by_row(self, seed):
        # random connected multigraphs up to m = MAX_EDGES, the last bit of
        # a join-table index, rows rounded to 0.1 for ties with 5% -inf
        rng = np.random.default_rng(seed)
        for m in range(1, MAX_EDGES + 1):
            n = int(rng.integers(2, min(m + 1, 8) + 1))  # m >= n - 1
            path = rng.permutation(np.arange(1, n + 1))
            extra = rng.integers(1, n + 1, size=(m - n + 1, 2))
            extra[:, 1] = (extra[:, 0] + rng.integers(1, n, size=m - n + 1) - 1) % n + 1
            edges = rng.permutation(np.vstack([np.column_stack((path[:-1], path[1:])),
                                               extra]))
            g = build_graph(n, edges, np.ones(m))
            noisy = np.round(rng.normal(size=(40, m)), 1)
            noisy[rng.random(noisy.shape) < 0.05] = -np.inf
            got = _kruskal_masks(g, noisy, 1.0, join_table(g))
            for row, mask in zip(noisy, got.tolist()):
                tree = kruskal_mst(g, row).edge_ids
                assert mask == sum(1 << (e - 1) for e in tree)

    @pytest.mark.parametrize("values", [[1.0], [2.0 ** -53],
                                        [1.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53,
                                         0.25, 1.0 / 3.0, 0.75]],
                             ids=["one", "tiny", "mix"])
    @pytest.mark.parametrize("name", sorted(TALLY_GRAPHS))
    def test_private_kruskal_at_extreme_uniforms(self, name, values, monkeypatch):
        # u = 1 gives -inf noise, whose ties the scan breaks by edge id, and
        # u = 2^-53 the largest; the seven-value cycle shifts against every
        # block of rows. kruskal is tallied as input perturbation at eps'.
        g = TALLY_GRAPHS[name]()
        budget = budget_for_eps_prime(g, 1.0)
        monkeypatch.setattr(harness, "_BLOCK_VARIATES", 50)
        stub = CycledUniform(values)
        monkeypatch.setattr(harness, "RngStream", lambda *args: stub)
        got = tree_distribution_test(g, 1.0, 400, 0.001, mechanisms=("kruskal",))
        ref = tree_counts(MECHANISMS["kruskal"], g, budget, 400, CycledUniform(values))
        assert got["kruskal"].counts == ref
        assert len(stub.sizes) > 1 and max(math.prod(s) for s in stub.sizes) <= 50

    @pytest.mark.parametrize("values", [[1.0], [2.0 ** -53],
                                        [1.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53,
                                         0.25, 1.0 / 3.0, 0.75]],
                             ids=["one", "tiny", "mix"])
    @pytest.mark.parametrize("name", sorted(TALLY_GRAPHS))
    def test_pamst_at_extreme_uniforms(self, name, values, monkeypatch):
        # all -inf noise rings every clock at once, all-equal noise ties
        # every clock, and the mix gives both within one block
        g = TALLY_GRAPHS[name]()
        budget = budget_for_eps_prime(g, 1.0)
        monkeypatch.setattr(harness, "_BLOCK_VARIATES", 50)
        monkeypatch.setattr(harness, "RngStream", lambda *args: CycledUniform(values))
        got = tree_distribution_test(g, 1.0, 400, 0.001, mechanisms=("pamst",))
        ref = tree_counts(MECHANISMS["pamst"], g, budget, 400, CycledUniform(values))
        assert got["pamst"].counts == ref

    @staticmethod
    def count_kruskal_calls(monkeypatch):
        calls = []
        kruskal = graph.kruskal_mst

        def counting(g, weights=None):
            calls.append(weights)
            return kruskal(g, weights)

        for module in (graph, mechanisms, harness):
            monkeypatch.setattr(module, "kruskal_mst", counting, raising=False)
        return calls

    def test_one_exact_kruskal_per_scan_order(self, monkeypatch):
        calls = self.count_kruskal_calls(monkeypatch)
        monkeypatch.setattr(harness, "_BLOCK_VARIATES", 6 * 1000)
        results = tree_distribution_test(family_graph("k4"), 1.0, 20000, 0.001,
                                         master_seed=9, mechanisms=("perturb",))
        assert sum(results["perturb"].counts.values()) == 20000
        # 20 blocks, yet never more than one Kruskal per each of the 6! scan
        # orders (the rank-mask rule runs none)
        assert len(calls) <= 720

    def test_one_exact_kruskal_per_scan_order_across_ids(self, monkeypatch):
        calls = self.count_kruskal_calls(monkeypatch)
        tree_distribution_test(family_graph("k4"), 1.0, 20000, 0.001, master_seed=9,
                               mechanisms=("perturb", "onepass", "mutant"))
        # the tree of a scan order holds at every eps', so the three ids
        # together stay within one Kruskal per scan order
        assert len(calls) <= 720

    def test_no_exact_kruskal_and_one_join_table_per_call(self, monkeypatch):
        kruskal_calls, tables = self.count_kruskal_calls(monkeypatch), []

        def counting_table(g):
            tables.append(g)
            return join_table(g)

        for module in (exact, harness):
            monkeypatch.setattr(module, "join_table", counting_table)
        monkeypatch.setattr(harness, "_BLOCK_VARIATES", 6 * 1000)
        for seed in (9, 10):
            results = tree_distribution_test(family_graph("k4"), 1.0, 20000, 0.001,
                                             master_seed=seed,
                                             mechanisms=("perturb", "kruskal",
                                                         "onepass", "mutant"))
            assert all(sum(r.counts.values()) == 20000 for r in results.values())
        # 20 noise blocks per id, yet no exact Kruskal, and each call builds
        # the join table once for all four ids and the exact oracle
        assert kruskal_calls == []
        assert len(tables) == 2

    def test_bulk_ids_need_at_most_max_items_edges(self, monkeypatch):
        # k4 with eleven parallel edges: 17 edges, one more than the join
        # table (and the exact oracles) allow
        k4_edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        g = build_graph(4, k4_edges * 2 + k4_edges[:5], [1.0] * 17, delta_inf=1.0)
        assert g.m == MAX_EDGES + 1

        def no_draw(*args, **kwargs):
            raise AssertionError("drew noise before the size check")

        monkeypatch.setattr(harness, "perturb_weights", no_draw)
        for mech in ("perturb", "pamst"):
            with pytest.raises(SizeGuardError):
                tree_distribution_test(g, 1.0, 100, 0.001, mechanisms=(mech,))

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected_before_any_draw(self, trials, monkeypatch):
        def no_stream(*args):
            raise AssertionError("opened a stream before the trials check")

        monkeypatch.setattr(harness, "RngStream", no_stream)
        with pytest.raises(ValueError, match="trials"):
            tree_distribution_test(family_graph("k3"), 1.0, trials, 0.001)

    @pytest.mark.parametrize("eps_prime, message", [
        (-1.0, "eps_prime must be positive and finite"),
        (0.0, "eps_prime must be positive and finite"),
        (np.nan, "eps_prime must be positive and finite"),
        (np.inf, "eps_prime must be positive and finite"),
        (1e154, "eps_prime 1e+154 is out of range: 2 rounds at it spend rho = inf,"),
        (1e300, "eps_prime 1e+300 is out of range: 2 rounds at it spend rho = inf,"),
        (1e-170, "eps_prime 1e-170 is out of range: 2 rounds at it spend rho = 0.0,"),
    ], ids=["-1.0", "0.0", "nan", "inf", "1e+154", "1e+300", "1e-170"])
    def test_bad_eps_prime_rejected_before_any_draw(self, eps_prime, message, monkeypatch):
        # -1 used to run at +1, since only eps'^2 reaches the budget; on k3,
        # 2 * eps'^2 / 2 overflowed: 1e154 was refused as an infinite rho,
        # and 1e300 raised OverflowError
        def no_stream(*args):
            raise AssertionError("opened a stream before the eps' check")

        monkeypatch.setattr(harness, "RngStream", no_stream)
        with pytest.raises(ValueError, match=re.escape(message)):
            tree_distribution_test(family_graph("k3"), eps_prime, 100, 0.001)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, np.nan])
    def test_bad_alpha_rejected_before_any_draw(self, alpha, monkeypatch):
        # alpha used to be checked only by the first chi-square, after that
        # id's whole tally
        def no_stream(*args):
            raise AssertionError("opened a stream before the alpha check")

        monkeypatch.setattr(harness, "RngStream", no_stream)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            tree_distribution_test(family_graph("k3"), 1.0, 100, alpha)

    def test_repeated_id_rejected_before_any_draw(self, monkeypatch):
        # a repeated id used to run two tallies and keep only the second,
        # drawn from the stream of its second place
        def no_stream(*args):
            raise AssertionError("opened a stream before the id check")

        monkeypatch.setattr(harness, "RngStream", no_stream)
        with pytest.raises(ValueError, match="'perturb' is repeated"):
            tree_distribution_test(family_graph("k3"), 1.0, 100, 0.001,
                                   mechanisms=("perturb", "perturb"))

    def test_no_id_runs_through_the_registry(self, monkeypatch):
        def no_call(g, budget, stream):
            raise AssertionError("a registry function ran")

        for mech in list(MECHANISMS):
            monkeypatch.setitem(MECHANISMS, mech, no_call)
        judged = tuple(mech for mech, rec in IDS.items() if rec.rule is not None)
        results = tree_distribution_test(family_graph("k3"), 1.0, 300, 0.001, master_seed=2,
                                         mechanisms=judged)
        assert set(results) == set(judged)
        assert all(sum(r.counts.values()) == 300 for r in results.values())


class TestOracles:
    """Each id is judged against its own exact tree distribution."""

    def test_pamst_is_judged_by_the_prim_oracle(self):
        # against the Kruskal oracle a correct pamst scores chi2 760-820 at
        # these 5,000 trials (seeds 1-3), with a threshold of 37.7
        g = k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        result = tree_distribution_test(g, 1.0, 5000, 0.001, master_seed=1,
                                        mechanisms=("pamst",))["pamst"]
        eps_used = budget_for_eps_prime(g, 1.0).per_round(g.n - 1)
        assert result.chi == chi_square_gof(
            result.counts, prim_tree_distribution(g, eps_used), 0.001)
        assert result.passed

    @pytest.mark.parametrize("graph", [
        lambda: triangle([1.0, 2.0, 3.0]), lambda: k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6]),
    ], ids=["k3", "k4-asymmetric"])
    def test_prim_mutant_rejected(self, graph):
        # at twice eps' pamst's trees leave the Prim-cut oracle: chi2 about
        # 790 against 13.8 on k3 and 2,160 against 37.7 on the K4
        results = tree_distribution_test(graph(), 1.0, 5000, 0.001, master_seed=1,
                                         mechanisms=("pamst", "pamst-mutant"))
        assert results["pamst"].passed
        assert not results["pamst-mutant"].passed

    @pytest.mark.parametrize("mech", ["sealfon-laplace", "sealfon-gauss"])
    def test_ids_without_an_exact_tree_distribution_refused(self, mech, monkeypatch):
        def no_stream(*args):
            raise AssertionError("opened a stream before the id check")

        monkeypatch.setattr(harness, "RngStream", no_stream)
        with pytest.raises(ValueError, match="no exact tree distribution"):
            tree_distribution_test(family_graph("k3"), 1.0, 100, 0.001,
                                   mechanisms=("perturb", mech))

    def test_weight_span_beyond_a_global_shift(self):
        # the candidates after edge 1 weigh 1000 and 1001, which a global
        # shift at eps' = 3 turned into two 0.0 terms
        g = build_graph(3, [(1, 2), (2, 3), (2, 3)], [0.0, 1000.0, 1001.0])
        results = tree_distribution_test(g, 3.0, 5000, 0.001, master_seed=1,
                                         mechanisms=("perturb", "onepass", "pamst"))
        assert all(r.passed for r in results.values())

    def test_kruskal_weight_span_beyond_a_global_shift(self):
        # the graph above: a kruskal sampler shifted by the global minimum
        # weight drew edges 2 and 3 uniformly, chi2 about 13,000
        g = build_graph(3, [(1, 2), (2, 3), (2, 3)], [0.0, 1000.0, 1001.0])
        result = tree_distribution_test(g, 3.0, 20000, 0.001, master_seed=1,
                                        mechanisms=("kruskal",))["kruskal"]
        assert result.passed

    def test_k5_with_unequal_weights(self):
        g = build_graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)],
                        [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3])
        results = tree_distribution_test(
            g, 1.0, 20000, 0.001, master_seed=1,
            mechanisms=("perturb", "kruskal", "onepass", "pamst", "mutant"))
        assert {mech: r.passed for mech, r in results.items()} == {
            "perturb": True, "kruskal": True, "onepass": True, "pamst": True,
            "mutant": False}


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "dpmst.cli", *args],
                              capture_output=True, text=True)

    def test_gen_run_pipeline(self, tmp_path):
        graph_file = tmp_path / "er.txt"
        csv_file = tmp_path / "out.csv"
        r = self.run_cli("gen", "--model", "er", "--n", "12", "--p", "0.8",
                         "--seed", "5", "--out", str(graph_file))
        assert r.returncode == 0, r.stderr
        r = self.run_cli("run", "--graph", str(graph_file), "--mech", "onepass",
                         "--eps", "1.0", "--delta", "1e-6", "--trials", "3",
                         "--seed", "4", "--out", str(csv_file))
        assert r.returncode == 0, r.stderr
        assert csv_file.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_check_equiv_exit_zero(self):
        r = self.run_cli("check-equiv", "--family", "k3", "--eps-prime", "1.0",
                         "--trials", "4000", "--alpha", "0.001")
        assert r.returncode == 0, r.stdout + r.stderr
        # pamst is judged too, against its own (Prim-cut) oracle
        assert [line.split(":")[0] for line in r.stdout.splitlines()] == [
            "[PASS] perturb", "[PASS] kruskal", "[PASS] onepass", "[PASS] pamst"]

    def test_check_equiv_runs_the_named_ids(self, capsys):
        from dpmst import cli

        # the mutants fail the gate; the i-th id draws from stream (seed, (i,)),
        # so perturb in second place reads the default run's kruskal stream
        args = ["check-equiv", "--family", "k5", "--eps-prime", "1.0", "--trials", "20000",
                "--seed", "1"]
        assert cli.main(args + ["--mech", "mutant", "--mech", "perturb",
                                "--mech", "pamst-mutant"]) == cli.STAT_FAILURE
        named = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in named] == [
            "[FAIL] mutant", "[PASS] perturb", "[FAIL] pamst-mutant"]
        assert cli.main(args) == 0
        default = capsys.readouterr().out.splitlines()
        assert named[1].split(":")[1] == default[1].split(":")[1]

    @pytest.mark.parametrize("mech", ["bogus", "sealfon-gauss"])
    def test_check_equiv_unknown_id_exit_one(self, mech, capsys):
        from dpmst import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["check-equiv", "--family", "k3", "--eps-prime", "1.0", "--mech", mech])
        assert exc.value.code == cli.USAGE_ERROR
        assert "--mech" in capsys.readouterr().err

    def test_check_equiv_family_choices_are_the_table(self, monkeypatch):
        from dpmst import cli

        # a family added to the table is reachable from the CLI
        monkeypatch.setitem(harness.EQUIV_FAMILIES, "p3", (3, [(1, 2), (2, 3)], [1.0, 2.0]))
        parser = cli._build_parser()
        equiv = parser._subparsers._group_actions[0].choices["check-equiv"]
        family = equiv._option_string_actions["--family"]
        assert list(family.choices) == list(harness.EQUIV_FAMILIES)
        args = parser.parse_args(["check-equiv", "--family", "p3", "--eps-prime", "1"])
        assert args.family == "p3"

    def test_id_lists_are_the_table(self):
        from dpmst import cli

        subs = cli._build_parser()._subparsers._group_actions[0].choices
        run_ids = subs["run"]._option_string_actions["--mech"].choices
        equiv_ids = subs["check-equiv"]._option_string_actions["--mech"].choices
        assert set(run_ids) == {mech for mech, rec in IDS.items() if rec.call is not None}
        assert list(equiv_ids) == [mech for mech, rec in IDS.items() if rec.rule is not None]
        assert list(equiv_ids) == ["perturb", "kruskal", "onepass", "mutant", "pamst",
                                   "pamst-mutant"]
        # a mutant is judged, never run
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--graph", "x", "--mech", "mutant", "--eps", "1",
                      "--delta", "1e-6", "--seed", "1", "--out", "y"])
        assert exc.value.code == cli.USAGE_ERROR

    def test_usage_error_exit_one(self):
        r = self.run_cli("run", "--graph", "x", "--mech", "not-a-mech",
                         "--eps", "1", "--delta", "1e-6", "--seed", "1",
                         "--out", "y")
        assert r.returncode == 1

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_gen_hard_bad_beta_exit_one(self, beta, tmp_path, capsys):
        from dpmst import cli

        # a NaN or infinite beta used to write an all-zero-weight graph
        out = tmp_path / "hard.txt"
        code = cli.main(["gen", "--model", "hard", "--n", "10", "--beta", beta,
                         "--seed", "1", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.startswith("dpmst gen: shape parameters")

    def test_gen_mi_chain_needs_no_seed(self, tmp_path):
        from dpmst import cli

        # the mi-chain model draws nothing, so --seed used to be required in vain
        out = tmp_path / "mi.txt"
        assert cli.main(["gen", "--model", "mi-chain", "--n", "10", "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("model", ["er", "hard"])
    def test_gen_without_seed_exit_one(self, model, tmp_path, capsys):
        from dpmst import cli

        out = tmp_path / "g.txt"
        assert cli.main(["gen", "--model", model, "--n", "10", "--out", str(out)]) == 1
        assert not out.exists()
        assert "--seed" in capsys.readouterr().err

    def test_missing_file_exit_three(self, tmp_path):
        r = self.run_cli("run", "--graph", str(tmp_path / "absent.txt"),
                         "--mech", "onepass", "--eps", "1", "--delta", "1e-6",
                         "--seed", "1", "--out", str(tmp_path / "o.csv"))
        assert r.returncode == 3

    def test_huge_vertex_count_without_edges_exit_three(self, tmp_path, capsys, monkeypatch):
        from dpmst import cli

        # the connectivity check used to label all n vertices first: 8 GB for this file
        def no_boruvka(*args):
            raise AssertionError("ran Borůvka on fewer than n - 1 edges")

        monkeypatch.setattr(graph, "_boruvka_batches", no_boruvka)
        graph_file = tmp_path / "huge.txt"
        graph_file.write_text("1000000000 0 1.0\n")
        code = cli.main(["run", "--graph", str(graph_file), "--mech", "pamst", "--eps", "1",
                         "--delta", "1e-6", "--seed", "1", "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "not connected" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--mech", "pamst", "--eps", "inf"], "eps must be positive and finite, got inf"),
        (["run", "--mech", "kruskal", "--eps", "inf"], "eps must be positive and finite, got inf"),
        (["run", "--mech", "sealfon-gauss", "--eps", "inf"],
         "eps must be positive and finite, got inf"),
        (["sweep-density", "--n", "10", "--densities", "0.5", "--rho", "inf"],
         "rho must be positive and finite, got inf"),
    ], ids=["run-pamst", "run-kruskal", "run-sealfon-gauss", "sweep-density"])
    def test_infinite_budget_exit_one(self, argv, message, tmp_path, capsys, monkeypatch):
        from dpmst import cli

        # each mechanism used to fail its own way deep in a trial
        graph_file = tmp_path / "k4.txt"
        write_instance(k4([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), graph_file)
        extra = ["--graph", str(graph_file), "--delta", "1e-6"] if argv[0] == "run" else []

        def no_stream(*args, **kwargs):
            raise AssertionError("opened a stream on an infinite budget")

        monkeypatch.setattr(harness, "RngStream", no_stream)
        code = cli.main(argv + extra + ["--seed", "1", "--out", str(tmp_path / "o.csv")])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"dpmst {argv[0]}: {message}"]

    def test_sweep_density_cli(self, tmp_path):
        out = tmp_path / "sweep.csv"
        r = self.run_cli("sweep-density", "--n", "10", "--densities", "0.8,1.0",
                         "--rho", "1.0", "--trials", "2", "--seed", "2",
                         "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert out.exists()

    def test_sweep_density_writes_the_sweep_csv_and_ratio_iqr(self, tmp_path, capsys):
        from dpmst import cli

        out, ref = tmp_path / "sweep.csv", tmp_path / "ref.csv"
        assert cli.main(["sweep-density", "--n", "10", "--densities", "0.8,1.0",
                         "--rho", "1.0", "--trials", "3", "--seed", "2",
                         "--out", str(out)]) == 0
        reports = density_sweep(10, [0.8, 1.0], 1.0, 3, 2)
        emit_csv(reports, ref)

        def without_runtime(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        assert without_runtime(out) == without_runtime(ref)
        lines = capsys.readouterr().out.splitlines()
        assert "ratio IQR" in lines[0]
        assert len(lines) == 2 + len(reports)
        for line, r in zip(lines[1:], reports):
            q1, _, q3 = r.quartiles(r.ratios)
            assert f"[{q1:8.4f}, {q3:8.4f}]" in line

    def test_bad_density_list_exit_one(self, tmp_path):
        r = self.run_cli("sweep-density", "--n", "10", "--densities", "0.5,huh",
                         "--rho", "1.0", "--seed", "2",
                         "--out", str(tmp_path / "s.csv"))
        assert r.returncode == 1

    @pytest.mark.parametrize("args, message", [
        (("--alpha", "0"), "alpha must be in (0, 1), got 0.0"),
        (("--alpha", "nan"), "alpha must be in (0, 1), got nan"),
        (("--trials", "0"), "trials must be >= 1, got 0"),
        (("--eps-prime", "1e300"),
         "eps_prime 1e+300 is out of range: 2 rounds at it spend rho = inf, "
         "not a positive finite float"),
        # every tree but the MST underflows to an expected count of 0
        (("--eps-prime", "1e4", "--trials", "100", "--seed", "1"),
         "fewer than two usable bins after pooling"),
    ], ids=["alpha-0", "alpha-nan", "trials-0", "eps-prime-1e300", "eps-prime-1e4"])
    def test_check_equiv_bad_input_exit_one(self, args, message, capsys):
        from dpmst import cli

        # --alpha 0 used to pass every mechanism (threshold inf) and exit 0
        code = cli.main(["check-equiv", "--family", "k3", "--eps-prime", "1.0", *args])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"dpmst check-equiv: {message}"]

    @pytest.mark.parametrize("value, shown", [
        ("-1", "-1.0"), ("0", "0.0"), ("nan", "nan"), ("inf", "inf"),
    ], ids=["minus-1", "zero", "nan", "inf"])
    def test_check_equiv_bad_eps_prime_exit_one(self, value, shown, capsys, monkeypatch):
        from dpmst import cli

        def no_suite(*args, **kwargs):
            raise AssertionError("ran the suite on a bad --eps-prime")

        monkeypatch.setattr(cli, "tree_distribution_test", no_suite)
        with pytest.raises(SystemExit) as exc:
            cli.main(["check-equiv", "--family", "k3", "--eps-prime", value])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert err.splitlines()[-1] == ("dpmst check-equiv: error: argument --eps-prime: "
                                        f"must be positive and finite, got {shown}")

    @pytest.mark.parametrize("failing, code", [((), 0), ((2,), 2)], ids=["pass", "fail"])
    def test_selftest_prints_one_line_per_criterion(self, failing, code, capsys,
                                                    monkeypatch):
        from dpmst import cli, selfcheck

        stubs = {n: (lambda n=n: (n not in failing, f"detail {n}")) for n in (1, 2, 7)}
        monkeypatch.setattr(selfcheck, "CRITERIA", stubs)
        assert cli.main(["selftest"]) == code
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == [
            "[acceptance] criterion 1 PASS: detail 1",
            f"[acceptance] criterion 2 {'FAIL' if failing else 'PASS'}: detail 2",
            "[acceptance] criterion 7 PASS: detail 7"]

    def test_selftest_runs_the_acceptance_tests_but_the_reds(self):
        from dpmst import selfcheck

        from . import test_acceptance

        tested = sorted(int(name.split("_")[2]) for name in vars(test_acceptance)
                        if name.startswith("test_criterion_"))
        assert list(selfcheck.CRITERIA) == [n for n in tested if n not in (5, 6)]
        for n, criterion in selfcheck.CRITERIA.items():
            assert criterion is getattr(selfcheck, f"criterion_{n}")

    def test_statistical_failure_exit_two(self, monkeypatch):
        from dpmst import cli
        from dpmst.exact import ChiSquareResult
        from dpmst.harness import EquivalenceResult

        def fake_suite(g, eps_prime, trials, alpha, master_seed=0, mechanisms=()):
            chi = ChiSquareResult(999.0, 2, 13.8, alpha, False)
            return {m: EquivalenceResult(m, {}, chi) for m in mechanisms}

        monkeypatch.setattr(cli, "tree_distribution_test", fake_suite)
        code = cli.main(["check-equiv", "--family", "k3", "--eps-prime", "1.0",
                         "--trials", "10", "--alpha", "0.001"])
        assert code == 2


class TestScipyFree:
    """``import dpmst`` and the input-perturbation ``dpmst run`` path load no
    scipy; ``pamst``, the chi-square threshold and ``selftest`` load it on
    first use. Each case runs a fresh interpreter, as does
    ``TestCli.test_check_equiv_exit_zero`` for ``check-equiv``."""

    SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"

    def python(self, code, *args):
        return subprocess.run([sys.executable, "-c", code, *args],
                              capture_output=True, text=True)

    def test_import_dpmst(self):
        r = self.python(f"import sys, dpmst; {self.SCIPY_LOADED}")
        assert (r.returncode, r.stdout) == (0, "[]\n"), r.stderr

    def test_gen_then_run_input_perturbation_ids(self, tmp_path):
        code = ("import sys\n"
                "from dpmst import cli\n"
                "out = sys.argv[1]\n"
                "assert cli.main(['gen', '--model', 'er', '--n', '40', '--p', '0.3',"
                " '--seed', '2', '--out', out + '/er.txt']) == 0\n"
                "for mech in ('perturb', 'onepass', 'kruskal', 'sealfon-laplace',"
                " 'sealfon-gauss'):\n"
                "    assert cli.main(['run', '--graph', out + '/er.txt', '--mech', mech,"
                " '--eps', '1.0', '--delta', '1e-6', '--trials', '3', '--seed', '1',"
                " '--out', out + '/' + mech + '.csv']) == 0\n"
                f"{self.SCIPY_LOADED}\n")
        r = self.python(code, str(tmp_path))
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert lines[-1] == "[]"
        assert [line.split(" on ")[0] for line in lines[1:-1]] == [
            "perturb", "onepass", "kruskal", "sealfon-laplace", "sealfon-gauss"]

    def test_pamst_run_loads_scipy_on_first_use(self, tmp_path):
        # n = 40 is above PAMST_RACE_MAX_N, so pamst runs its Dijkstra path
        graph_file, csv_file = tmp_path / "er.txt", tmp_path / "pamst.csv"
        write_instance(erdos_renyi_instance(40, 0.3, 0, 100, RngStream(2)), graph_file)
        code = ("import sys\n"
                "from dpmst import cli\n"
                "assert 'scipy' not in sys.modules\n"
                "assert cli.main(['run', '--graph', sys.argv[1], '--mech', 'pamst',"
                " '--eps', '1.0', '--delta', '1e-6', '--trials', '3', '--seed', '1',"
                " '--out', sys.argv[2]]) == 0\n"
                "print('scipy.sparse.csgraph' in sys.modules)\n")
        r = self.python(code, str(graph_file), str(csv_file))
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert lines[0].startswith("pamst on n=40 m=") and lines[1] == "True"
        rows = csv_file.read_text().splitlines()
        assert len(rows) == 4 and all(row.startswith("pamst,") for row in rows[1:])

import subprocess
import sys

import numpy as np
import pytest

from dpmst import graph, harness, mechanisms
from dpmst.accounting import PrivacyBudget
from dpmst.exact import MAX_ITEMS, SizeGuardError
from dpmst.graph import SpanningTree, build_graph, tree_weight
from dpmst.harness import (CSV_COLUMNS, _run_single_trial, _tally_noisy_kruskal,
                           _tally_private_kruskal, _wrong_exponent_mst,
                           density_sweep, emit_csv, equivalence_suite,
                           family_graph, run_trials, tree_distribution_test)
from dpmst.instances import erdos_renyi_instance, write_instance
from dpmst.mechanisms import MECHANISMS, MechanismResult, UnknownMechanismError
from dpmst.rng import RngStream

from .test_graph import k4, triangle
from .test_mechanisms import (budget_for_eps_prime, light_triangles_heavy_bridges,
                              parallel_edges, tree_counts)


@pytest.fixture(scope="module")
def er_graph():
    return erdos_renyi_instance(16, 0.6, 0, 100, RngStream(1))


BUDGET = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)


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
        ids = [e - 1 for e in kruskal_mst(er_graph).edge_ids]
        lone = _run_single_trial(er_graph, "onepass", BUDGET, 7, 5, tw,
                                 lambda noisy: float(noisy[ids].sum()))
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
                                   noisy_weights=np.array([-np.inf, 0.0, 5.0]))

        monkeypatch.setitem(MECHANISMS, "perturb", heavy_tree)
        with pytest.raises(RuntimeError, match="non-minimal"):
            _run_single_trial(triangle(), "perturb", BUDGET, 0, 0, 3.0,
                              lambda noisy: float(noisy[[0, 1]].sum()))


class TestEmitCsv:
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
        result = density_sweep(12, [0.5, 1.0], 1.0, 4, 3)
        assert len(result.rows) == 2 * 3
        assert {r.mechanism for r in result.rows} == {"perturb", "pamst",
                                                      "sealfon-gauss"}
        out = tmp_path / "sweep.csv"
        emit_csv(result, out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sweep_param,")
        assert len(lines) == 1 + 2 * 3 * 4  # per-trial rows

    def test_rows_recomputable_from_reports(self):
        result = density_sweep(12, [1.0], 1.0, 6, 4)
        for row in result.rows:
            report = result.reports[(row.sweep_param, row.mechanism)]
            assert row.median_ratio == pytest.approx(
                float(np.median(report.ratios)))


class TestEquivalenceSuite:
    def test_k3_all_mechanisms_pass(self):
        results = equivalence_suite("k3", 1.0, 20000, 0.001, master_seed=13)
        assert set(results) == {"perturb", "kruskal", "onepass"}
        assert all(r.passed for r in results.values())

    def test_wrong_exponent_mutant_fails(self):
        g = build_graph(3, [(1, 2), (2, 3), (1, 3)], [0.0, 2.0, 4.0])
        results = tree_distribution_test(g, 1.0, 20000, 0.001, master_seed=13,
                                         mechanisms=("mutant",))
        assert not results["mutant"].passed

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            equivalence_suite("k5", 1.0, 100, 0.01)


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
    """Stream stand-in whose uniform draws cycle through ``values``; it
    records the size of each vector draw."""

    def __init__(self, values):
        self.values, self.next, self.sizes = np.asarray(values, dtype=float), 0, []

    def uniform(self, size=None):
        if size is not None:
            self.sizes.append(size)
        at = (self.next + np.arange(1 if size is None else size)) % len(self.values)
        self.next += len(at)
        return float(self.values[at[0]]) if size is None else self.values[at]


TALLY_GRAPHS = {
    "k3": lambda: family_graph("k3"),
    "k4": lambda: family_graph("k4"),
    "k4-asymmetric": lambda: k4([3.0, 1.0, 4.0, 1.5, 9.0, 2.6]),
    "k3-mutant": lambda: triangle([0.0, 2.0, 4.0]),
    "parallel-edges": parallel_edges,
}

BULK = {"perturb": MECHANISMS["perturb"], "onepass": MECHANISMS["onepass"],
        "mutant": _wrong_exponent_mst, "kruskal": MECHANISMS["kruskal"]}

TALLY_CASES = [(name, mech) for name in sorted(TALLY_GRAPHS) for mech in sorted(BULK)]
# m = 8, and private Kruskal draws and discards a triangle's third edge often
TALLY_GRAPHS["light-triangles-heavy-bridges"] = light_triangles_heavy_bridges
TALLY_CASES.append(("light-triangles-heavy-bridges", "kruskal"))


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
                # the per-trial loop that the bulk tally replaces
                ref = tree_counts(BULK[mech], g, budget, trials, RngStream(seed, (0,)))
                assert got.counts == ref
                assert got.chi == harness.chi_square_gof(
                    ref, harness.exact_tree_distribution(
                        g, budget.per_round(g.n - 1), g.delta_inf), 0.001)

    @pytest.mark.parametrize("cut", [np.inf, 0.5])
    @pytest.mark.parametrize("name", ["k4", "k4-asymmetric", "parallel-edges"])
    def test_minus_inf_rows(self, name, cut, monkeypatch):
        # every draw 0, or about 40% of them: rows of -inf ties, which the
        # stable order breaks by edge id, as kruskal_mst does
        g = TALLY_GRAPHS[name]()
        budget = budget_for_eps_prime(g, 1.0)
        monkeypatch.setattr(harness, "_BLOCK_VARIATES", 50)
        got = _tally_noisy_kruskal(g, budget.per_round(g.n - 1), budget.delta_inf,
                                   500, ZeroedExponential(RngStream(6), cut))
        ref = tree_counts(MECHANISMS["perturb"], g, budget, 500,
                          ZeroedExponential(RngStream(6), cut))
        assert got == ref
        if cut == np.inf:
            assert got == {graph.kruskal_mst(g, np.zeros(g.m)).edge_ids: 500}

    @pytest.mark.parametrize("values", [[1.0], [2.0 ** -53],
                                        [1.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53,
                                         0.25, 1.0 / 3.0, 0.75]],
                             ids=["one", "tiny", "mix"])
    @pytest.mark.parametrize("name", sorted(TALLY_GRAPHS))
    def test_private_kruskal_at_extreme_uniforms(self, name, values, monkeypatch):
        # u = 1 and u = 2^-53 take the descent's edge cases at every draw;
        # the seven-value cycle shifts against every run length
        g = TALLY_GRAPHS[name]()
        budget = budget_for_eps_prime(g, 1.0)
        monkeypatch.setattr(harness, "_BLOCK_VARIATES", 50)
        stub = CycledUniform(values)
        got = _tally_private_kruskal(g, budget, 400, stub, harness._join_table(g))
        ref = tree_counts(MECHANISMS["kruskal"], g, budget, 400, CycledUniform(values))
        assert got == ref
        assert len(stub.sizes) > 1 and max(stub.sizes) <= 50  # blocks carried over

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
        results = equivalence_suite("k4", 1.0, 20000, 0.001, master_seed=9,
                                    mechanisms=("perturb",))
        assert sum(results["perturb"].counts.values()) == 20000
        # 20 blocks, yet never more than one Kruskal per each of the 6! scan
        # orders (the vectorized scan runs none)
        assert len(calls) <= 720

    def test_one_exact_kruskal_per_scan_order_across_ids(self, monkeypatch):
        calls = self.count_kruskal_calls(monkeypatch)
        equivalence_suite("k4", 1.0, 20000, 0.001, master_seed=9,
                          mechanisms=("perturb", "onepass", "mutant"))
        # the tree of a scan order holds at every eps', so the three ids
        # together stay within one Kruskal per scan order
        assert len(calls) <= 720

    def test_no_exact_kruskal_and_one_join_table_per_call(self, monkeypatch):
        kruskal_calls, tables = self.count_kruskal_calls(monkeypatch), []

        def counting_table(g):
            tables.append(g)
            return join_table(g)

        join_table = harness._join_table
        monkeypatch.setattr(harness, "_join_table", counting_table)
        monkeypatch.setattr(harness, "_BLOCK_VARIATES", 6 * 1000)
        for seed in (9, 10):
            results = equivalence_suite("k4", 1.0, 20000, 0.001, master_seed=seed,
                                        mechanisms=("perturb", "kruskal",
                                                    "onepass", "mutant"))
            assert all(sum(r.counts.values()) == 20000 for r in results.values())
        # 20 noise blocks per id, yet no exact Kruskal, and each call builds
        # the join table once for all four ids
        assert kruskal_calls == []
        assert len(tables) == 2

    def test_bulk_ids_need_at_most_max_items_edges(self, monkeypatch):
        # k4 with three parallel edges: 9 edges, one more than the join
        # table (and the exact oracle) allows
        g = build_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                            (1, 2), (1, 3), (1, 4)], [1.0] * 9, delta_inf=1.0)
        assert g.m == MAX_ITEMS + 1

        def no_draw(*args, **kwargs):
            raise AssertionError("drew noise before the size check")

        monkeypatch.setattr(harness, "perturb_weights", no_draw)
        with pytest.raises(SizeGuardError):
            tree_distribution_test(g, 1.0, 100, 0.001, mechanisms=("perturb",))
        with pytest.raises(SizeGuardError):
            _tally_noisy_kruskal(g, 1.0, 1.0, 100, RngStream(0))

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected_before_any_draw(self, trials, monkeypatch):
        def no_stream(*args):
            raise AssertionError("opened a stream before the trials check")

        monkeypatch.setattr(harness, "RngStream", no_stream)
        with pytest.raises(ValueError, match="trials"):
            equivalence_suite("k3", 1.0, trials, 0.001)

    @pytest.mark.parametrize("eps_prime", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_eps_prime_rejected_before_any_draw(self, eps_prime, monkeypatch):
        # -1 used to run at +1, since only eps'^2 reaches the budget
        def no_stream(*args):
            raise AssertionError("opened a stream before the eps' check")

        monkeypatch.setattr(harness, "RngStream", no_stream)
        with pytest.raises(ValueError, match="eps_prime must be positive and finite"):
            equivalence_suite("k3", eps_prime, 100, 0.001)

    def test_other_ids_run_once_per_trial_through_the_registry(self, monkeypatch):
        calls = {"kruskal": 0, "pamst": 0, "perturb": 0}

        def counting(mech):
            fn = MECHANISMS[mech]

            def call(g, budget, stream):
                calls[mech] += 1
                return fn(g, budget, stream)
            return call

        for mech in calls:
            monkeypatch.setitem(MECHANISMS, mech, counting(mech))
        results = equivalence_suite("k3", 1.0, 300, 0.001, master_seed=2,
                                    mechanisms=("kruskal", "pamst", "perturb"))
        assert calls == {"kruskal": 0, "pamst": 300, "perturb": 0}
        assert sum(results["pamst"].counts.values()) == 300


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

    def test_usage_error_exit_one(self):
        r = self.run_cli("run", "--graph", "x", "--mech", "not-a-mech",
                         "--eps", "1", "--delta", "1e-6", "--seed", "1",
                         "--out", "y")
        assert r.returncode == 1

    def test_missing_file_exit_three(self, tmp_path):
        r = self.run_cli("run", "--graph", str(tmp_path / "absent.txt"),
                         "--mech", "onepass", "--eps", "1", "--delta", "1e-6",
                         "--seed", "1", "--out", str(tmp_path / "o.csv"))
        assert r.returncode == 3

    def test_sweep_density_cli(self, tmp_path):
        out = tmp_path / "sweep.csv"
        r = self.run_cli("sweep-density", "--n", "10", "--densities", "0.8,1.0",
                         "--rho", "1.0", "--trials", "2", "--seed", "2",
                         "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert out.exists()

    def test_bad_density_list_exit_one(self, tmp_path):
        r = self.run_cli("sweep-density", "--n", "10", "--densities", "0.5,huh",
                         "--rho", "1.0", "--seed", "2",
                         "--out", str(tmp_path / "s.csv"))
        assert r.returncode == 1

    @pytest.mark.parametrize("arg, value, message", [
        ("--alpha", "0", "alpha must be in (0, 1), got 0.0"),
        ("--alpha", "nan", "alpha must be in (0, 1), got nan"),
        ("--trials", "0", "trials must be >= 1, got 0"),
    ], ids=["alpha-0", "alpha-nan", "trials-0"])
    def test_check_equiv_bad_input_exit_one(self, arg, value, message, capsys):
        from dpmst import cli

        # --alpha 0 used to pass every mechanism (threshold inf) and exit 0
        code = cli.main(["check-equiv", "--family", "k3", "--eps-prime", "1.0", arg, value])
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

        monkeypatch.setattr(cli, "equivalence_suite", no_suite)
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

        def fake_suite(family, eps_prime, trials, alpha, master_seed=0):
            chi = ChiSquareResult(999.0, 2, 13.8, alpha, False)
            return {m: EquivalenceResult(m, {}, chi)
                    for m in ("perturb", "kruskal", "onepass")}

        monkeypatch.setattr(cli, "equivalence_suite", fake_suite)
        code = cli.main(["check-equiv", "--family", "k3", "--eps-prime", "1.0",
                         "--trials", "10", "--alpha", "0.001"])
        assert code == 2

import subprocess
import sys

import numpy as np
import pytest

from dpmst.accounting import PrivacyBudget
from dpmst.graph import SpanningTree, build_graph
from dpmst.harness import (CSV_COLUMNS, _run_single_trial, density_sweep,
                           emit_csv, equivalence_suite, run_trials,
                           tree_distribution_test)
from dpmst.instances import erdos_renyi_instance, write_instance
from dpmst.mechanisms import MECHANISMS, MechanismResult, UnknownMechanismError
from dpmst.rng import RngStream

from .test_graph import triangle


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

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The green criteria (1-4
and 7-10) live in `dpmst.selfcheck`, which `dpmst selftest` runs as well;
each test here calls one of them. Statistical criteria use fixed seeds
committed before their outcomes were known; the two criteria whose stated
thresholds exclude the measured behavior of a verified-correct
implementation (5 and 6b) are implemented exactly as stated and left red
rather than loosened.
"""

import math

from dpmst import selfcheck
from dpmst.accounting import PrivacyBudget
from dpmst.harness import RunReport, density_sweep, run_trials
from dpmst.instances import erdos_renyi_instance
from dpmst.rng import RngStream


def report(num, ok, detail):
    print("\n" + selfcheck.acceptance_line(num, ok, detail))
    return ok


def test_criterion_1_distribution_equivalence():
    assert report(1, *selfcheck.criterion_1())


def test_criterion_2_kruskal_equals_brute_force():
    assert report(2, *selfcheck.criterion_2())


def test_criterion_3_accounting_identities():
    assert report(3, *selfcheck.criterion_3())


def test_criterion_4_distribution_facts():
    assert report(4, *selfcheck.criterion_4())


def test_criterion_5_utility_scaling():
    # stated parameters: complete graphs, U(0,100) weights, rho=1,
    # delta_inf=0.1, 50 trials per size; the ratio of mean errors must lie
    # within 2x of 8 * ln(256)/ln(64) = 10.67
    budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
    means = {}
    for i, n in enumerate((64, 256)):
        g = erdos_renyi_instance(n, 1.0, 0, 100, RngStream(20240, (0, i)))
        means[n] = run_trials(g, "perturb", budget, 50, 20240 + i).mean_error()
    ratio = means[256] / means[64]
    target = 8 * math.log(256) / math.log(64)
    ok = target / 2 <= ratio <= target * 2
    # diagnostic: the same property in the noise-dominated regime
    diag = {}
    for i, n in enumerate((64, 256)):
        g = erdos_renyi_instance(n, 1.0, 0, 100, RngStream(20240, (0, i)))
        diag[n] = run_trials(g, "perturb", PrivacyBudget.from_rho(1.0, 1e-6, 0.5),
                             50, 20240 + i).mean_error()
    assert report(5, ok,
                  f"ratio {ratio:.2f} vs window [{target/2:.2f}, {target*2:.2f}] "
                  f"at delta_inf=0.1 (diagnostic: delta_inf=0.5 gives "
                  f"{diag[256]/diag[64]:.2f}, inside the window)")


def test_criterion_6_density_sweep():
    densities = [0.1, 0.3, 0.5, 0.8, 1.0]
    cells = {(r.density, r.mechanism): r for r in density_sweep(256, densities, 1.0, 50, 20240)}

    seal = [RunReport.quartiles(cells[(p, "sealfon-gauss")].ratios)[1] for p in densities]
    a_ok = all(x < y for x, y in zip(seal, seal[1:]))

    overlaps = []
    for p in densities:
        (x1, _, x3), (y1, _, y3) = (RunReport.quartiles(cells[(p, mech)].errors)
                                    for mech in ("perturb", "pamst"))
        overlaps.append(x1 <= y3 and y1 <= x3)
    b_ok = all(overlaps)

    c_ratio = (cells[(1.0, "sealfon-gauss")].median_error() /
               cells[(1.0, "perturb")].median_error())
    c_ok = c_ratio >= 2.0

    ok = a_ok and b_ok and c_ok
    assert report(6, ok,
                  f"(a) sealfon ratio strictly worsens: {a_ok} {['%.2f' % s for s in seal]}; "
                  f"(b) perturb/pamst IQR overlap per p: {overlaps}; "
                  f"(c) sealfon/perturb error at p=1: {c_ratio:.2f}x (>=2x: {c_ok})")


def test_criterion_7_mutual_information_instance():
    assert report(7, *selfcheck.criterion_7())


def test_criterion_8_complexity_instrumentation():
    assert report(8, *selfcheck.criterion_8())


def test_criterion_9_matroid_specialization():
    assert report(9, *selfcheck.criterion_9())


def test_criterion_10_hard_instance():
    assert report(10, *selfcheck.criterion_10())

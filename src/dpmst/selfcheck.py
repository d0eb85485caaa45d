"""The green acceptance criteria, run by ``dpmst selftest`` and by
``tests/test_acceptance.py``.

Each ``criterion_N()`` takes no parameters and returns ``(ok, detail)`` at
the criterion's stated graphs, seeds, trial counts and thresholds. Criteria 5
and 6, whose stated thresholds exclude the measured behavior of a correct
implementation, are left red in the test file and are not run here. This
module imports ``scipy.stats`` (criterion 4's KS tests), so ``import dpmst``
does not import it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import stats

from .accounting import (PrivacyBudget, eps_from_rho_delta, per_round_epsilon,
                         rho_from_eps_delta)
from .exact import brute_force_mst
from .graph import build_graph, is_spanning_tree, join, kruskal_mst
from .harness import family_graph, tree_distribution_test
from .instances import (erdos_renyi_instance, hard_instance, mi_weight,
                        mutual_info_chain_instance, parity_even_prob)
from .mechanisms import input_perturbation_mst, run_mechanism
from .rng import RngStream
from .sampling import private_max_weight_basis


def random_connected_graph(stream, max_n=6):
    """Random spanning path plus random extra edges; always connected."""
    n = 2 + int(stream.uniform() * (max_n - 1))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = {pr for pr in pairs if stream.uniform() <= 0.6}
    perm = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = int(stream.uniform() * (i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    for a, b in zip(perm, perm[1:]):
        keep.add((min(a, b), max(a, b)))
    edges = sorted(keep)
    weights = [stream.uniform() * 100.0 for _ in edges]
    return build_graph(n, edges, weights)


def graphic_matroid_oracle(g):
    """Independence oracle of g's graphic matroid: a tuple of 0-based edge
    indices is independent iff it holds no cycle."""
    u_arr, v_arr = g.u_arr.tolist(), g.v_arr.tolist()

    def is_independent(ids):
        scan = ((e, u_arr[e], v_arr[e]) for e in ids)
        return len(join(g.n, scan, len(ids))) == len(ids)

    return is_independent


def criterion_1():
    trials, alpha = 200000, 0.001
    k3 = tree_distribution_test(family_graph("k3"), 1.0, trials, alpha, master_seed=101)
    k4 = tree_distribution_test(family_graph("k4"), 1.0, trials, alpha, master_seed=102)
    mutant_graph = build_graph(3, [(1, 2), (2, 3), (1, 3)], [0.0, 2.0, 4.0])
    mutant = tree_distribution_test(mutant_graph, 1.0, trials, alpha,
                                    master_seed=103, mechanisms=("mutant",))
    parts = []
    for fam, results in (("k3", k3), ("k4", k4)):
        for mech, r in results.items():
            parts.append(f"{fam}/{mech} chi2={r.chi.statistic:.1f}")
    ok = (all(r.passed for r in k3.values()) and
          all(r.passed for r in k4.values()) and
          not mutant["mutant"].passed)
    parts.append(f"mutant chi2={mutant['mutant'].chi.statistic:.0f} (must fail)")
    return ok, "; ".join(parts)


def criterion_2():
    stream = RngStream(202)
    t0 = time.time()
    for i in range(1000):
        g = random_connected_graph(stream, max_n=6)
        tree = kruskal_mst(g)
        if tree != brute_force_mst(g) or not is_spanning_tree(g, tree.edge_ids):
            return False, f"random graph {i + 1} of 1000 (n={g.n}) disagrees"
    return True, f"1000 random graphs (n<=6) agree exactly in {time.time()-t0:.1f}s"


def criterion_3():
    worst_rt = 0.0
    for eps in (0.1, 1.0, 5.0):
        for delta in (1e-2, 1e-6, 1e-10):
            back = eps_from_rho_delta(rho_from_eps_delta(eps, delta), delta)
            worst_rt = max(worst_rt, abs(back - eps))
    # sqrt-then-square cannot round-trip exactly in binary64; the identity
    # rounds * eps'^2 / 2 == rho is verified to within 2 ulp
    worst_cons = 0.0
    for rho in (0.017468904769123376, 0.25, 1.0, 15.0):
        for rounds in (1, 2, 63, 255, 999):
            eps_prime = per_round_epsilon(rho, rounds)
            worst_cons = max(worst_cons,
                             abs(rounds * (eps_prime ** 2 / 2.0) - rho) / rho)
    ok = worst_rt <= 1e-9 and worst_cons <= 4.5e-16
    return ok, (f"round-trip dev {worst_rt:.2e} (<=1e-9), "
                f"budget conservation rel dev {worst_cons:.2e} (<=2 ulp)")


def criterion_4():
    stream = RngStream(404)
    x1 = stream.exponential(1.0, size=10**5)
    x2 = stream.exponential(3.0, size=10**5)
    min_dev = abs(float(np.mean(x1 < x2)) - 0.25)

    x = stream.exponential(1.0, size=10**6)
    memoryless_dev = max(
        abs(float(np.mean(x[x >= a] >= a + y)) - float(np.mean(x >= y)))
        for a in (0.5, 1.0, 2.0) for y in (0.5, 1.0, 2.0))

    ks_scaling = stats.kstest(stream.exponential(1.0, size=10**5) / 4.0,
                              lambda t: 1.0 - np.exp(-4.0 * t)).pvalue
    ks_gumbel = stats.kstest(-stream.ln_exponential(size=10**5),
                             lambda t: np.exp(-np.exp(-t))).pvalue

    max_ok = True
    for m in (10, 100, 1000):
        z = np.abs(stream.ln_exponential(size=(200, m)))
        max_ok = max_ok and z.max(axis=1).mean() <= math.log(2 * math.e * m)

    ok = (min_dev <= 0.015 and memoryless_dev <= 0.015 and
          ks_scaling > 0.01 and ks_gumbel > 0.01 and max_ok)
    return ok, (f"min dev {min_dev:.4f}, memoryless dev {memoryless_dev:.4f}, "
                f"KS p {ks_scaling:.3f}/{ks_gumbel:.3f}, max-bound ok={max_ok}")


def criterion_7():
    targets = {1: 0.7136, 2: 0.5471, 3: 0.4277}
    value_dev = max(abs(mi_weight(0.05, k) - v) for k, v in targets.items())

    parity_dev = 0.0
    for k in range(0, 11):
        for p in (0.02, 0.05, 0.25, 0.5, 0.9):
            brute = sum(math.comb(k, i) * p ** i * (1 - p) ** (k - i)
                        for i in range(0, k + 1, 2))
            parity_dev = max(parity_dev, abs(parity_even_prob(k, p) - brute))

    g = mutual_info_chain_instance(50, 0.05, 10**4)
    path = frozenset((np.flatnonzero(g.v_arr == g.u_arr + 1) + 1).tolist())
    path_ok = kruskal_mst(g).edge_ids == path

    ok = value_dev <= 5e-4 and parity_dev <= 1e-12 and path_ok
    return ok, (f"value dev {value_dev:.2e} (<=5e-4), parity dev "
                f"{parity_dev:.2e} (<=1e-12), n=50 MST is the chain: {path_ok}")


def criterion_8():
    budget = PrivacyBudget.from_rho(1.0, 1e-6, 0.1)
    g = erdos_renyi_instance(512, 0.5, 0, 100, RngStream(808, (0,)))
    r = run_mechanism("kruskal", g, budget, RngStream(808, (1,)))
    bound = 2 * math.ceil(math.log2(512)) + 2
    max_checks = int(r.ops["edge_checks"].max())
    checks_ok = max_checks <= bound

    times = {}
    for i, m_target in enumerate((10**4, 4 * 10**4)):
        p = m_target / (512 * 511 / 2)
        gi = erdos_renyi_instance(512, p, 0, 100, RngStream(809, (i,)))
        times[m_target] = min(
            run_mechanism("kruskal", gi, budget, RngStream(810, (i, rep))).wall_time_ns
            for rep in range(5))
    time_ratio = times[4 * 10**4] / times[10**4]
    time_ok = time_ratio < 4 * 1.5

    ok = checks_ok and time_ok
    return ok, (f"max per-edge checks {max_checks} <= {bound}; "
                f"wall-time ratio m=4e4/1e4 is {time_ratio:.2f} (< 6)")


def criterion_9():
    budget_eps, budget_delta = 1.0, 1e-6
    stream = RngStream(909)
    matched = 0
    for i in range(20):
        n = 6 + int(stream.uniform() * 7)
        g = erdos_renyi_instance(n, 0.7, 0, 100, stream.derive(i))
        budget = PrivacyBudget.from_eps_delta(budget_eps, budget_delta, 1.0)
        tree = input_perturbation_mst(g, budget, RngStream(910, (i,))).tree
        basis = private_max_weight_basis(-g.weights, graphic_matroid_oracle(g),
                                         budget_eps, budget_delta, 1.0,
                                         RngStream(910, (i,)))
        matched += frozenset(b + 1 for b in basis) == tree.edge_ids
    ok = matched == 20
    return ok, (f"shared-noise graphic-matroid basis equals the "
                f"perturbation tree on {matched}/20 graphs")


def criterion_10():
    n, s = 100, 10
    beta = 0.5 * math.log(n)
    g = hard_instance(n, beta, s, RngStream(1010, (0,)))

    support_ok = bool(np.all(g.weights >= 0) and np.all(g.weights <= s))

    var_p = 1.0 / (4.0 * (2 * beta + 1))
    var_w = s * s * var_p + s * (0.25 - var_p)
    sigma_mean = math.sqrt(var_w / g.m)
    mean_dev = abs(g.weights.mean() - s / 2)
    mean_ok = mean_dev <= 3 * sigma_mean

    # independent Monte-Carlo of the same two-stage sampler
    mc = RngStream(1010, (1,))
    trials = 200000
    p_samples = mc.beta(beta, beta, size=trials)
    w_samples = mc.binomial(s, p_samples)
    p_mc = float(np.mean(w_samples >= 0.75 * s))
    p_inst = float(np.mean(g.weights >= 0.75 * s))
    sigma = math.sqrt(p_mc * (1 - p_mc) * (1 / g.m + 1 / trials))
    tail_ok = p_inst > 0 and abs(p_inst - p_mc) <= 3 * sigma

    ok = support_ok and mean_ok and tail_ok
    return ok, (f"support ok={support_ok}; mean dev {mean_dev:.3f} "
                f"<= {3*sigma_mean:.3f}; tail {p_inst:.4f} vs MC "
                f"{p_mc:.4f} (3 sigma = {3*sigma:.4f})")


CRITERIA = {1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
            7: criterion_7, 8: criterion_8, 9: criterion_9, 10: criterion_10}


def acceptance_line(num, ok, detail) -> str:
    return f"[acceptance] criterion {num} {'PASS' if ok else 'FAIL'}: {detail}"


def run() -> bool:
    """Run every criterion in ``CRITERIA``, print one line each; True iff all pass."""
    ok = True
    for num, criterion in CRITERIA.items():
        passed, detail = criterion()
        print(acceptance_line(num, passed, detail), flush=True)
        ok = ok and passed
    return ok

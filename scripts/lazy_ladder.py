#!/usr/bin/env python3
"""The ladder behind the lazy reveal's size rule (``LAZY_MIN_EDGES`` and
``LAZY_MIN_DENSITY`` in ``dpmst.mechanisms``).

For each lazy id (``perturb``, ``kruskal`` and ``pamst``; ``onepass`` runs
``perturb``'s code), on each ladder graph and at both budgets of the comment
beside the rule, prints the median ms per call of the full draw and of the
lazy reveal, and the second over the first. The rule is forced one way or the other for each call by
setting the two constants, and the full and lazy calls alternate, so that a
drift in the machine's speed reaches both alike. Each id gets one untimed
call of each kind first, which fills the graph's caches and windows.

    PYTHONPATH=src python scripts/lazy_ladder.py
"""

import argparse
import math
import statistics
import time

from dpmst import mechanisms
from dpmst.accounting import PrivacyBudget
from dpmst.instances import erdos_renyi_instance
from dpmst.rng import RngStream

# (n, p) of ER(n, p) with U(0, 100) weights; p = 1 is K_n
LADDER = ((128, 1.0), (181, 1.0), (200, 1.0), (221, 1.0), (230, 1.0), (256, 1.0), (362, 0.5),
          (512, 0.3), (1024, 0.05), (2048, 0.02), (1024, 0.1), (512, 0.5),
          (4096, 0.01), (1024, 0.2), (2048, 0.1))
BUDGETS = {"eps=1 dinf=1": PrivacyBudget.from_eps_delta(1.0, 1e-6, 1.0),
           "rho=1 dinf=0.1": PrivacyBudget.from_rho(1.0, 1e-6, 0.1)}
IDS = ("perturb", "kruskal", "pamst")
RULES = {"full": (math.inf, math.inf), "lazy": (0, 0.0)}


def timed_call(rule, mech, g, budget, stream) -> float:
    """Seconds for one call of ``mech`` with the size rule forced to ``rule``."""
    mechanisms.LAZY_MIN_EDGES, mechanisms.LAZY_MIN_DENSITY = RULES[rule]
    t0 = time.perf_counter()
    mechanisms.run_mechanism(mech, g, budget, stream)
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--calls", type=int, default=80, help="timed calls per side")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rule = (mechanisms.LAZY_MIN_EDGES, mechanisms.LAZY_MIN_DENSITY)
    print(f"size rule: m >= {rule[0]} and m >= {rule[1]} n ln n; "
          f"median ms per call over {args.calls} calls: full, lazy, lazy / full")
    try:
        for n, p in LADDER:
            g = erdos_renyi_instance(n, p, 0.0, 100.0, RngStream(args.seed, (n,)))
            name = f"K{n}" if p == 1.0 else f"ER({n}, {p})"
            print(f"{name} (m = {g.m:,}; m / n ln n = {g.m / (n * math.log(n)):.1f})")
            for label, budget in BUDGETS.items():
                for mech in IDS:
                    stream = RngStream(args.seed, (n, 1))
                    times = {"full": [], "lazy": []}
                    for side in times:
                        timed_call(side, mech, g, budget, stream)
                    for i in range(args.calls):
                        for side in (("full", "lazy") if i % 2 else ("lazy", "full")):
                            times[side].append(timed_call(side, mech, g, budget, stream))
                    full, lazy = (1e3 * statistics.median(times[s]) for s in ("full", "lazy"))
                    print(f"  {label:>15} {mech:>8} {full:8.2f} {lazy:8.2f} {lazy / full:6.2f}")
    finally:
        mechanisms.LAZY_MIN_EDGES, mechanisms.LAZY_MIN_DENSITY = rule


if __name__ == "__main__":
    main()

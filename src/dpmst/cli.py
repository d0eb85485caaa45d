"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 statistical test failure, 3 I/O or
instance-file error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .accounting import PrivacyBudget
from .graph import GraphError
from .harness import (EQUIV_FAMILIES, EQUIV_MECHANISMS, density_sweep, emit_csv,
                      family_graph, run_trials, tree_distribution_test)
from .instances import (GenerationError, ParseError, erdos_renyi_instance,
                        hard_instance, mutual_info_chain_instance, read_instance,
                        write_instance)
from .mechanisms import IDS, MECHANISMS, UnknownMechanismError
from .rng import RngStream

USAGE_ERROR, STAT_FAILURE, IO_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _positive_finite(text: str) -> float:
    """argparse type: a float in (0, inf); NaN and inf are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="dpmst",
                     description="Differentially private minimum spanning trees "
                                 "under edge-weight privacy.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--model", required=True, choices=("er", "mi-chain", "hard"))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, default=0.5, help="edge probability (er)")
    gen.add_argument("--wmin", type=float, default=0.0)
    gen.add_argument("--wmax", type=float, default=100.0)
    gen.add_argument("--flip-p", type=float, default=0.05, help="bit-flip probability (mi-chain)")
    gen.add_argument("--dataset-size", type=int, default=10000, help="records behind the MI matrix (mi-chain)")
    gen.add_argument("--beta", type=float, default=None, help="beta shape (hard); default ln(n)/2")
    gen.add_argument("--s", type=int, default=10, help="binomial trials (hard)")
    gen.add_argument("--seed", type=int, default=None, help="required by er and hard")
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run one mechanism repeatedly on an instance")
    run.add_argument("--graph", required=True)
    run.add_argument("--mech", required=True, choices=sorted(MECHANISMS))
    run.add_argument("--eps", type=float, required=True)
    run.add_argument("--delta", type=float, required=True)
    run.add_argument("--trials", type=int, default=50)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out", required=True)

    sweep = sub.add_parser("sweep-density", help="density sweep over Erdos-Renyi instances")
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--densities", required=True, help="comma-separated list, e.g. 0.1,0.5,1.0")
    sweep.add_argument("--rho", type=float, required=True)
    sweep.add_argument("--delta", type=float, default=1e-6)
    sweep.add_argument("--delta-inf", type=float, default=0.1)
    sweep.add_argument("--trials", type=int, default=50)
    sweep.add_argument("--seed", type=int, required=True)
    sweep.add_argument("--out", required=True)

    equiv = sub.add_parser("check-equiv", help="chi-square the three equivalent "
                           "mechanisms and pamst (or the --mech ids) against their "
                           "exact tree distributions")
    equiv.add_argument("--family", required=True, choices=tuple(EQUIV_FAMILIES))
    equiv.add_argument("--eps-prime", type=_positive_finite, required=True)
    equiv.add_argument("--trials", type=int, default=200000)
    equiv.add_argument("--alpha", type=float, default=0.001)
    equiv.add_argument("--seed", type=int, default=0)
    equiv.add_argument("--mech", action="append", choices=[m for m, rec in IDS.items() if rec.rule],
                       help="an id to judge, repeatable; the i-th draws from stream "
                            "(seed, (i,)). Default: perturb, kruskal, onepass, pamst. "
                            "mutant and pamst-mutant must fail")

    sub.add_parser("selftest", help="run acceptance criteria 1-4 and 7-10 at their "
                                   "stated parameters")
    return parser


def _cmd_gen(args) -> int:
    if args.seed is None and args.model != "mi-chain":  # mi-chain draws nothing
        print(f"dpmst gen: --model {args.model} needs --seed", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.model == "er":
            g = erdos_renyi_instance(args.n, args.p, args.wmin, args.wmax,
                                     RngStream(args.seed))
        elif args.model == "mi-chain":
            g = mutual_info_chain_instance(args.n, args.flip_p, args.dataset_size)
        else:
            beta = args.beta if args.beta is not None else 0.5 * math.log(args.n)
            g = hard_instance(args.n, beta, args.s, RngStream(args.seed))
    except (ValueError, GenerationError) as exc:
        print(f"dpmst gen: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        write_instance(g, args.out)
    except OSError as exc:
        print(f"dpmst gen: cannot write {args.out}: {exc}", file=sys.stderr)
        return IO_ERROR
    print(f"wrote {args.out}: n={g.n} m={g.m} delta_inf={g.delta_inf!r}")
    return 0


def _load_graph(path):
    try:
        return read_instance(path)
    except (OSError, ParseError, GraphError) as exc:
        print(f"dpmst: cannot load {path}: {exc}", file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    g = _load_graph(args.graph)
    if g is None:
        return IO_ERROR
    try:
        budget = PrivacyBudget.from_eps_delta(args.eps, args.delta, g.delta_inf)
        report = run_trials(g, args.mech, budget, args.trials, args.seed)
    except (ValueError, UnknownMechanismError) as exc:
        print(f"dpmst run: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        emit_csv(report, args.out)
    except OSError as exc:
        print(f"dpmst run: cannot write {args.out}: {exc}", file=sys.stderr)
        return IO_ERROR
    print(f"{args.mech} on n={g.n} m={g.m}: mean error {report.mean_error():.6g}, "
          f"median {report.median_error():.6g} over {args.trials} trials -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        densities = [float(tok) for tok in args.densities.split(",") if tok.strip()]
        if not densities:
            raise ValueError("empty density list")
    except ValueError as exc:
        print(f"dpmst sweep-density: bad --densities: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        reports = density_sweep(args.n, densities, args.rho, args.trials, args.seed,
                                delta=args.delta, delta_inf=args.delta_inf)
    except (ValueError, GenerationError) as exc:
        print(f"dpmst sweep-density: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        emit_csv(reports, args.out)
    except OSError as exc:
        print(f"dpmst sweep-density: cannot write {args.out}: {exc}", file=sys.stderr)
        return IO_ERROR
    print(f"{'p':>6} {'mechanism':>14} {'median ratio':>14} {'ratio IQR':>20} "
          f"{'median error':>14}")
    for r in reports:
        q1, median, q3 = r.quartiles(r.ratios)
        print(f"{r.density:>6.2f} {r.mechanism:>14} {median:>14.4f} "
              f"[{q1:8.4f}, {q3:8.4f}] {r.median_error():>14.4f}")
    print(f"per-trial records -> {args.out}")
    return 0


def _cmd_check_equiv(args) -> int:
    # pamst comes last, so the three Kruskal-equivalent ids keep their streams
    judged = tuple(dict.fromkeys(args.mech)) if args.mech else EQUIV_MECHANISMS + ("pamst",)
    try:
        results = tree_distribution_test(family_graph(args.family), args.eps_prime,
                                         args.trials, args.alpha, master_seed=args.seed,
                                         mechanisms=judged)
    except ValueError as exc:
        print(f"dpmst check-equiv: {exc}", file=sys.stderr)
        return USAGE_ERROR
    ok = True
    for mech in judged:
        r = results[mech]
        ok = ok and r.passed
        print(f"[{'PASS' if r.passed else 'FAIL'}] {mech}: chi2 = {r.chi.statistic:.3f} "
              f"(df={r.chi.df}, threshold {r.chi.threshold:.3f} at alpha={args.alpha})")
    return 0 if ok else STAT_FAILURE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep-density":
        return _cmd_sweep(args)
    if args.command == "check-equiv":
        return _cmd_check_equiv(args)
    if args.command == "selftest":
        from . import selfcheck  # imported here: it imports scipy.stats
        return 0 if selfcheck.run() else STAT_FAILURE
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())

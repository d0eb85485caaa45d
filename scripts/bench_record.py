#!/usr/bin/env python3
"""Collate perfbench run records into one perf record, ``BENCH_<label>.json``
at the root of the repository.

For each workload and metric it keeps the median, the quartiles, the number
of runs and their seeds. The metrics are those of each record's
``metrics`` (end to end, or per layer for traced runs) and, as
``trials_per_s.<mechanism>``, its calibrated per-mechanism rates. The file
also names the source digest, the Python, numpy and scipy versions and the
commits the records came from.

Records of two source digests or versions do not describe one program, and
a record whose checks failed does not describe a working one: either is
refused, and nothing is written.

    python scripts/bench_record.py LABEL perfbench/out/*.record.json
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHARED = ("source_sha256", "python", "numpy", "scipy")


class RecordError(ValueError):
    pass


def collate(records: list[dict]) -> dict:
    """The perf record of run records of one source and toolchain."""
    if not records:
        raise RecordError("no records given")
    for r in records:
        if r["checks"]["failed"]:
            raise RecordError(f"{r['workload']} seed {r['seed']}: "
                              f"{r['checks']['failed']} checks failed")
    shared = {}
    for key in SHARED:
        values = sorted({r[key] for r in records})
        if len(values) > 1:
            raise RecordError(f"records of more than one {key}: {', '.join(values)}")
        shared[key] = values[0]
    runs = defaultdict(lambda: defaultdict(list))  # workload -> metric -> [(seed, value, unit)]
    for r in records:
        metrics = {name: (m["value"], m["unit"]) for name, m in r["metrics"].items()}
        for mech, rate in r["trials_per_s_by_mechanism"].items():
            metrics[f"trials_per_s.{mech}"] = (rate, "1/s")
        for name, (value, unit) in metrics.items():
            runs[r["workload"]][name].append((r["seed"], value, unit))
    workloads = {}
    for workload, metrics in sorted(runs.items()):
        workloads[workload] = {}
        for name, seen in metrics.items():
            values = [v for _, v, _ in seen]
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else values * 3)
            workloads[workload][name] = {
                "unit": seen[0][2], "median": median, "q1": q1, "q3": q3,
                "runs": len(values), "seeds": sorted(s for s, _, _ in seen)}
    return {"commits": sorted({r["commit"] for r in records}), **shared,
            "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("label", help="names the output, BENCH_<label>.json")
    parser.add_argument("records", nargs="+", type=Path, help="perfbench run records")
    args = parser.parse_args(argv)
    try:
        bench = collate([json.loads(path.read_text()) for path in args.records])
    except RecordError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, **bench}, indent=1) + "\n")
    print(f"wrote {out.name}: {len(args.records)} records, "
          f"{', '.join(f'{w} ({len(m)} metrics)' for w, m in bench['workloads'].items())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

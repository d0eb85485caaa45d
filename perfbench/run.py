"""dpmst benchmark: one workload per process, seeded, checked, timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout. Set-up is timed in fresh interpreters (``probe.py``); the
process then repeats timed passes of the workload for ``--seconds`` and
reports medians over passes. End-to-end timings are in calibrated seconds
(see ``calibration.py``); the raw seconds are printed and recorded too. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced passes with passes under
span wrappers, adds one untimed counting pass, and prints the per-layer
metrics. The last line of standard output is one JSON object. A run record,
the CSV outputs and (traced) the span dump are written under
``perfbench/out/``. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

# one workload per process on one core; set before numpy is imported
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 3
MIN_PASSES = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _commit() -> str:
    """HEAD of the checkout's own git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "dpmst").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _probe(workload, seed: int, instance: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "probe.py"), json.dumps(asdict(workload)), str(seed)]
    if instance is not None:
        cmd.append(str(instance))
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None, workload_table=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "dpmst" / "__init__.py").is_file():
        print(f"perfbench: no dpmst sources under {src}", file=sys.stderr)
        return 2
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy
    import scipy

    import calibration
    import dpmst
    import tracing
    import workloads

    if Path(dpmst.__file__).resolve().parent != (src / "dpmst").resolve():
        print(f"perfbench: dpmst imported from {dpmst.__file__}, not {src}", file=sys.stderr)
        return 2
    table = workload_table or workloads.WORKLOADS
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(table)}",
              file=sys.stderr)
        return 2
    wl, seed = table[args.workload], args.seed
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{wl.name}-s{seed}{'-trace' if args.trace else ''}"

    instance = None
    if wl.source == "file":
        instance = out_dir / f"{tag}.instance.txt"
        workloads.write_er_instance(instance, wl.n, wl.p, seed)
    probes = [_probe(wl, seed, instance) for _ in range(PROBES)]

    tracer = tracing.Tracer() if args.trace else None
    t0 = time.perf_counter()
    if tracer:
        with tracing.Patches() as patches, tracer.segment("setup"):
            tracer.install(patches, "spans")
            prep = workloads.setup(wl, seed, instance)
    else:
        prep = workloads.setup(wl, seed, instance)
    in_process_setup_s = time.perf_counter() - t0
    if instance is not None:
        instance.unlink()

    gate = workloads.Gate()
    bench = workloads.Bench(prep, gate, out_dir)
    cal = calibration.Calibration()
    plain, traced, cal_s = [], [], []
    digests = {}
    if tracer:  # the counting pass uses pass 0's inputs, so its digests match
        with tracing.Patches() as patches:
            tracer.install(patches, "counts")
            digests = bench.run_pass(0).digests
    deadline = time.perf_counter() + args.seconds
    k = 0
    while time.perf_counter() < deadline or len(plain) < MIN_PASSES:
        cal_s.append(cal.measure())
        result = bench.run_pass(k)
        plain.append(result)
        digests = digests or result.digests
        if tracer:  # same inputs as the untraced pass just run
            with tracing.Patches() as patches, tracer.segment("spans"):
                tracer.install(patches, "spans")
                traced.append(bench.run_pass(k))
        k += 1
    chi_lines = bench.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import_s = _median([p["import_s"] for p in probes])
    # seconds on a machine where the calibration loop takes NOMINAL_S
    scale = [calibration.NOMINAL_S / c for c in cal_s]
    walls = [r.wall_ns / 1e9 for r in plain]
    raw = {
        "setup_s": _median([p["setup_s"] for p in probes]),
        "wall_s": _median(walls),
        "trials_per_s": _median([r.releases / (r.release_ns / 1e9) for r in plain]),
    }
    if tracer:
        metrics = tracing.layer_metrics(tracer, [r.wall_ns for r in traced],
                                        [r.wall_ns for r in plain], import_s)
    else:
        metrics = {
            "setup_s": (_median([p["setup_s"] * calibration.NOMINAL_S / p["calibration_s"]
                                 for p in probes]), "s"),
            "wall_s": (_median([w * f for w, f in zip(walls, scale)]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "passed_frac": (1.0 - gate.failed / max(gate.attempted, 1), "ratio"),
            "trials_per_s": (_median([r.releases / (r.release_ns / 1e9 * f)
                                      for r, f in zip(plain, scale)]), "1/s"),
        }
    mech_rates = {mech: _median([wl.trials / (r.mech_ns[mech] / 1e9 * f)
                                 for r, f in zip(plain, scale)])
                  for mech in plain[0].mech_ns}

    record = {
        "workload": wl.name, "why": wl.why, "seed": seed, "trace": args.trace,
        "commit": _commit(), "source_sha256": _source_digest(src),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "instances": {k: {"n": g.n, "m": g.m} for k, g in prep.graphs.items()},
        "trials_per_pass": wl.trials, "passes": len(plain), "traced_passes": len(traced),
        "setup_probes": probes, "in_process_setup_s": in_process_setup_s,
        "trials_per_s_by_mechanism": mech_rates, "raw": raw, "calibration_s": cal_s,
        "tree_digests": digests,
        "checks": {"attempted": gate.attempted, "failed": gate.failed,
                   "failed_frac": gate.failed / max(gate.attempted, 1),
                   "failures": gate.failures, "chi_square": chi_lines},
        "pass_wall_s": walls,
        "traced_pass_wall_s": [r.wall_ns / 1e9 for r in traced],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if tracer:
        record["module_self_time"] = tracing.layer_table(tracer, [r.wall_ns for r in traced])
        record["trace_targets_missing"] = sorted(tracer.missing)
        tracer.dump(out_dir / f"{tag}.spans.npz")
    (out_dir / f"{tag}.record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {wl.name} seed={seed} trace={args.trace} commit={record['commit']} "
          f"source={record['source_sha256']} python={record['python']} "
          f"numpy={record['numpy']} scipy={record['scipy']} nproc={record['nproc']}")
    print("# instances: " + ", ".join(f"{k} n={v['n']} m={v['m']}"
                                      for k, v in record["instances"].items()))
    q, tail_s = tracing.tail(walls)
    print(f"# raw pass wall p50={raw['wall_s']:.6g} s p{q:g}={tail_s:.6g} s over {len(walls)} "
          f"passes; raw setup_s={raw['setup_s']:.6g} s, raw trials_per_s="
          f"{raw['trials_per_s']:.6g} 1/s; calibration p50={_median(cal_s):.6g} s "
          f"(nominal {calibration.NOMINAL_S:g} s)")
    print(f"# passes={len(plain)} traced_passes={len(traced)} trials/pass={wl.trials} "
          f"checks attempted={gate.attempted} failed={gate.failed} "
          f"failed_frac={record['checks']['failed_frac']:.6g}")
    for mech, rate in mech_rates.items():
        print(f"# trials_per_s.{mech} {rate:.6g} 1/s (calibrated)")
    for mech, d in digests.items():
        print(f"# digest {wl.name}/{mech} {d}")
    for line in chi_lines + record.get("module_self_time", []):
        print(f"# {line}")
    for what in tracer.missing if tracer else ():
        print(f"# trace target not found: {what}")
    for what in gate.failures:
        print(f"# FAILED: {what}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": record["metrics"]}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

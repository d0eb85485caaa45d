"""Set-up probe: times one workload's set-up in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD_JSON SEED [INSTANCE_FILE]

Prints one JSON line with ``import_s`` (``import dpmst``), ``setup_s``
(import plus ``workloads.setup``), ``calibration_s`` (the median of three
timings of the calibration loop, taken after set-up) and the instance sizes.
Nothing is imported before the clock starts except the standard library, so
the import time is what a user of ``dpmst`` pays.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spec, seed = json.loads(sys.argv[1]), int(sys.argv[2])
    instance = Path(sys.argv[3]) if len(sys.argv) > 3 else None
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    t0 = time.perf_counter()
    import dpmst  # noqa: F401  (timed)
    t1 = time.perf_counter()
    import workloads
    spec["mechanisms"] = tuple(spec["mechanisms"])
    t2 = time.perf_counter()
    prep = workloads.setup(workloads.Workload(**spec), seed, instance)
    t3 = time.perf_counter()
    from calibration import Calibration
    cal = Calibration()
    cal_s = sorted(cal.measure() for _ in range(3))[1]
    print(json.dumps({"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2),
                      "calibration_s": cal_s,
                      "sizes": {k: [g.n, g.m] for k, g in prep.graphs.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

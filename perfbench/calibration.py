"""A fixed reference computation whose time tracks the machine's speed.

On a shared host the speed of this process drifts by a quarter or more over
minutes, and a run of the benchmark lasts less than one such phase. The time
of a fixed computation taken beside each pass follows the drift. Code of
different kinds slows by different amounts, so the loop has an interpreter
part (function calls, small numpy calls, a union-find, a dict) and an array
part (log and stable argsort of 100k values). On a two-core sandbox, over
eleven 25-second windows, the quartile spread of window medians went from
0.22 raw to 0.06 calibrated for k3/k4 equivalence passes, 0.19 to 0.065 for
private Kruskal on K256, and 0.12 to 0.035 for large-array numpy work.

End-to-end timings are therefore reported in calibrated seconds: measured
seconds times ``NOMINAL_S`` over the loop's time measured beside them, that
is, seconds on a machine where the loop takes ``NOMINAL_S``. The raw
seconds are kept in the run record. The loop uses no dpmst code, so a
change to the library cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.08


class Calibration:
    """The reference loop over fixed data (made once, outside the timing)."""

    def __init__(self):
        rng = np.random.default_rng(20241210)
        self._values = rng.random(100_000) + 0.5
        self._pairs = rng.integers(0, 5000, size=(20_000, 2)).tolist()
        self._small = [rng.random(3) for _ in range(64)]

    def measure(self) -> float:
        """Seconds the loop takes now."""
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(4000):
            acc += _small_call(self._small[i & 63], i)
        parent = list(range(5000))
        seen: dict[int, int] = {}
        for u, v in self._pairs:
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u != v:
                parent[u] = v
            seen[u] = seen.get(u, 0) + 1
        for _ in range(3):
            np.argsort(np.log(self._values), kind="stable")
        return time.perf_counter() - t0


def _small_call(a, k) -> float:
    return float(np.log(a).sum()) + int(np.argsort(a, kind="stable")[0]) + k

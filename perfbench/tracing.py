"""Spans and counters for the traced run, installed from the benchmark's side.

Wrappers replace module attributes, registry entries, default arguments and
class methods of the dpmst package while a pass runs and are removed after
it, so untraced passes run the library unmodified. Two modes keep the costs
apart:

* ``spans`` records name, start, end and parent of each call at a layer
  boundary. Per-element hot methods are left unwrapped, since a wrapper would
  cost more than the call (private Kruskal on K256 does about 0.5M finds per
  release).
* ``counts`` counts calls, including the hot methods, and computes op counts
  from each call's public inputs and outputs. Its passes are not timed.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute): module-level functions, patched wherever the
# package holds a reference to them
FUNCTIONS = (
    ("instances.read_instance", "dpmst.instances", "read_instance"),
    ("instances.erdos_renyi_instance", "dpmst.instances", "erdos_renyi_instance"),
    ("graph.kruskal_mst", "dpmst.graph", "kruskal_mst"),
    ("graph.tree_weight", "dpmst.graph", "tree_weight"),
    ("harness.run_trials", "dpmst.harness", "run_trials"),
    ("harness.tree_distribution_test", "dpmst.harness", "tree_distribution_test"),
    ("harness.emit_csv", "dpmst.harness", "emit_csv"),
    ("exact.tree_distribution", "dpmst.exact", "exact_tree_distribution"),
    ("exact.chi_square", "dpmst.exact", "chi_square_gof"),
)
# (span name, module, class, attribute); ``incident`` is a property
METHODS = (
    ("graph.build", "dpmst.graph", "WeightedGraph", "__init__"),
    ("graph.incident", "dpmst.graph", "WeightedGraph", "incident"),
    ("sampling.tree_build", "dpmst.sampling", "SamplingTree", "__init__"),
    ("rng.stream_new", "dpmst.rng", "RngStream", "__init__"),
)
HOT_METHODS = (
    ("graph.dsu_find", "dpmst.graph", "DisjointSets", "find"),
    ("graph.dsu_merge", "dpmst.graph", "DisjointSets", "merge"),
    ("sampling.sample", "dpmst.sampling", "SamplingTree", "sample"),
    ("sampling.remove", "dpmst.sampling", "SamplingTree", "remove"),
)
RNG_DRAWS = ("uniform", "exponential", "ln_exponential", "gumbel", "laplace",
             "gaussian", "beta", "binomial")
# (module, attribute) of the dicts that map mechanism ids to functions
REGISTRIES = (("dpmst.mechanisms", "MECHANISMS"), ("dpmst.harness", "_EXTRA_MECHANISMS"))
# the modules timed by spans; ``cli`` (import) is timed by the set-up probes
LAYERS = ("instances", "graph", "rng", "sampling", "mechanisms", "harness", "exact")
MECHANISM_IDS = ("perturb", "kruskal", "onepass", "pamst", "sealfon-gauss", "mutant")


class Patches:
    """Attribute and item replacements, undone in reverse order on exit."""

    def __init__(self):
        self._undo = []

    def set_attr(self, owner, name, value):
        old = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((setattr, owner, name, old))
        setattr(owner, name, value)

    def set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def replace_function(self, original, replacement):
        """Point every dpmst module attribute and default argument at ``replacement``."""
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set_attr(mod, attr, replacement)
                elif isinstance(val, types.FunctionType) and val.__defaults__ and any(
                        d is original for d in val.__defaults__):
                    self.set_attr(val, "__defaults__", tuple(
                        replacement if d is original else d for d in val.__defaults__))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            setter, owner, key, old = self._undo.pop()
            setter(owner, key, old)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dpmst" or name.startswith("dpmst."))]


def _lookup(module, *attrs):
    obj = sys.modules.get(module)
    for a in attrs:
        obj = None if obj is None else (vars(obj).get(a) if isinstance(obj, type)
                                        else getattr(obj, a, None))
    return obj


class Tracer:
    """In-memory spans (parallel arrays) and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.accept_ratios: list[float] = []
        self.segments: list[tuple[str, int, int]] = []  # (kind, first span, end span)
        self.missing: set[str] = set()
        self._rng_depth = [0]  # shared by every rng counter, so nesting is seen

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- span recording --------------------------------------------------

    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn):
        sid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def rng_span(self, fn):
        """Span named ``rng.vector`` or ``rng.scalar`` by what the draw returned."""
        vec, scalar = self._id("rng.vector"), self._id("rng.scalar")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(scalar)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if isinstance(out, np.ndarray):
                self.name_id[idx] = vec
            return out
        return wrapper

    @contextmanager
    def segment(self, kind: str):
        """Marks the spans recorded inside the block as one segment."""
        lo = len(self.start)
        try:
            yield
        finally:
            self.segments.append((kind, lo, len(self.start)))

    # -- counting ----------------------------------------------------------

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def rng_counter(self, fn):
        """Counts outermost draws only; a Laplace vector is one draw, not three."""
        counts, depth = self.counts, self._rng_depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                if isinstance(out, np.ndarray):
                    counts["rng.vector_draws"] += 1
                    counts["rng.variates"] += out.size
                else:
                    counts["rng.scalar_draws"] += 1
            return out
        return wrapper

    def kruskal_counter(self, fn):
        """Counts calls and computes (n-1) / rank of the last accepted edge."""
        counts, ratios = self.counts, self.accept_ratios

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            tree = fn(g, *args, **kwargs)
            counts["graph.kruskal_mst"] += 1
            weights = args[0] if args else kwargs.get("weights")
            w = g.weights if weights is None else np.asarray(weights, dtype=float)
            rank = np.empty(len(w), dtype=np.int64)
            rank[np.argsort(w, kind="stable")] = np.arange(1, len(w) + 1)
            last = int(rank[np.fromiter(tree.edge_ids, dtype=np.int64) - 1].max())
            ratios.append((g.n - 1) / last)
            return tree
        return wrapper

    def mechanism_counter(self, mech: str, fn):
        """Counts calls and the op counts computed from each call's result."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            result = fn(g, *args, **kwargs)
            counts[f"mechanisms.{mech}.calls"] += 1
            ops = getattr(result, "ops", None) or {}
            if "edge_checks" in ops:
                counts[f"mechanisms.{mech}.edge_checks"] += int(np.sum(ops["edge_checks"]))
            if mech == "pamst":  # each round rebuilds the cut over all m edges
                counts["mechanisms.pamst.cut_edge_scans"] += (g.n - 1) * g.m
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, patches: Patches, mode: str):
        """Install the ``spans`` or ``counts`` wrappers into ``patches``."""
        spans = mode == "spans"
        for name, module, attr in FUNCTIONS:
            fn = _lookup(module, attr)
            if fn is None:
                self.missing.add(f"{module}.{attr}")
            elif spans:
                patches.replace_function(fn, self.span(name, fn))
            elif name == "graph.kruskal_mst":
                patches.replace_function(fn, self.kruskal_counter(fn))
        for name, module, cls, attr in METHODS + (() if spans else HOT_METHODS):
            owner, raw = _lookup(module, cls), _lookup(module, cls, attr)
            if raw is None:
                self.missing.add(f"{module}.{cls}.{attr}")
                continue
            wrap = self.span if spans else self.counter
            if isinstance(raw, property):
                patches.set_attr(owner, attr, property(wrap(name, raw.fget)))
            else:
                patches.set_attr(owner, attr, wrap(name, raw))
        rng_cls = _lookup("dpmst.rng", "RngStream")
        for attr in RNG_DRAWS:
            raw = _lookup("dpmst.rng", "RngStream", attr)
            if raw is not None:
                patches.set_attr(rng_cls, attr,
                                 self.rng_span(raw) if spans else self.rng_counter(raw))
        for module, attr in REGISTRIES:
            registry = _lookup(module, attr)
            for mech, fn in list((registry or {}).items()):
                patches.set_item(registry, mech, self.span(f"mechanisms.{mech}", fn) if spans
                                 else self.mechanism_counter(mech, fn))

    # -- reduction -----------------------------------------------------------

    def arrays(self):
        """Per-span name id, duration, self time and parent as numpy arrays."""
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return np.frombuffer(self.name_id, dtype=np.int64), dur, dur - child, parent

    def dump(self, path):
        """Write every span (name id, start and end ns, parent index; -1 for
        none), the name table and the segments as one uncompressed .npz."""
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent),
                 segments=np.array([(lo, hi) for _, lo, hi in self.segments]),
                 segment_kinds=np.array([kind for kind, _, _ in self.segments]))


def tail(values):
    """(percentile, value) at the highest of the usual percentiles with at least
    ten samples beyond it; the maximum (100) when there are fewer than 20."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(values, q))
    return 100.0, float(max(values))


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, span_walls_ns, plain_walls_ns, import_s: float):
    """Per-layer metrics, keyed by name, each a (value, unit) pair.

    Per-call figures are medians over every call in the span passes; per-pass
    figures are medians over the span passes; counts are per pass, from the
    single counting pass.
    """
    name_id, dur, self_ns, parent = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    passes = [(lo, hi) for kind, lo, hi in tracer.segments if kind == "spans"]
    setup = [(lo, hi) for kind, lo, hi in tracer.segments if kind == "setup"]

    def select(name, ranges):
        sid = ids.get(name, -1)
        idx = [np.arange(lo, hi) for lo, hi in ranges]
        idx = np.concatenate(idx) if idx else np.zeros(0, dtype=np.int64)
        return idx[name_id[idx] == sid]

    def per_call_ms(name, values=self_ns):
        return _median(values[select(name, passes)] / 1e6)

    def setup_s(name):
        return float(dur[select(name, setup)].sum() / 1e9)

    c = tracer.counts
    m = {
        "cli.import_s": (import_s, "s"),
        "instances.read_s": (setup_s("instances.read_instance"), "s"),
        "instances.generate_s": (setup_s("instances.erdos_renyi_instance"), "s"),
        "graph.build_s": (setup_s("graph.build"), "s"),
        "graph.incident_s": (setup_s("graph.incident"), "s"),
        "graph.kruskal_mst_ms": (per_call_ms("graph.kruskal_mst"), "ms"),
        "graph.kruskal_mst_calls": (c["graph.kruskal_mst"], "count"),
        "graph.kruskal_accept_ratio": (_median(tracer.accept_ratios), "ratio"),
        "graph.tree_weight_ms": (per_call_ms("graph.tree_weight"), "ms"),
        "graph.dsu_find_calls": (c["graph.dsu_find"], "count"),
        "graph.dsu_merge_calls": (c["graph.dsu_merge"], "count"),
    }
    # outermost vector draws only: a draw nested in another rng span is its child
    rng_ids = [ids[n] for n in ("rng.vector", "rng.scalar") if n in ids]
    outer_vec = []
    for lo, hi in passes:
        idx = select("rng.vector", [(lo, hi)])
        outer = idx[(parent[idx] < 0) | ~np.isin(name_id[np.maximum(parent[idx], 0)], rng_ids)]
        outer_vec.append(dur[outer].sum() / 1e6)
    m.update({
        "rng.vector_draw_ms": (_median(outer_vec), "ms"),
        "rng.variates": (c["rng.variates"], "count"),
        "rng.scalar_draw_calls": (c["rng.scalar_draws"], "count"),
        "rng.stream_new_calls": (c["rng.stream_new"], "count"),
        "rng.stream_new_us": (per_call_ms("rng.stream_new") * 1e3, "us"),
        "sampling.tree_build_ms": (per_call_ms("sampling.tree_build"), "ms"),
        "sampling.sample_calls": (c["sampling.sample"], "count"),
        "sampling.remove_calls": (c["sampling.remove"], "count"),
    })
    for mech in MECHANISM_IDS:
        calls = dur[select(f"mechanisms.{mech}", passes)] / 1e6
        q, tail_ms = tail(calls)
        m.update({
            f"mechanisms.{mech}.call_p50_ms": (_median(calls), "ms"),
            f"mechanisms.{mech}.call_tail_ms": (tail_ms, "ms"),
            f"mechanisms.{mech}.call_tail_pct": (q, "%"),
            f"mechanisms.{mech}.call_samples": (len(calls), "count"),
            f"mechanisms.{mech}.self_ms": (per_call_ms(f"mechanisms.{mech}"), "ms"),
        })
    m["mechanisms.kruskal.edge_checks"] = (c["mechanisms.kruskal.edge_checks"], "count")
    m["mechanisms.pamst.cut_edge_scans"] = (c["mechanisms.pamst.cut_edge_scans"], "count")
    # harness self time per trial: each release is one direct mechanism child
    is_release = np.isin(name_id, [i for n, i in ids.items() if n.startswith("mechanisms.")])
    releases = np.bincount(parent[is_release & (parent >= 0)], minlength=len(dur))
    per_trial = [self_ns[idx] / releases[idx] / 1e3
                 for name in ("harness.run_trials", "harness.tree_distribution_test")
                 for idx in select(name, passes) if releases[idx]]
    m.update({
        "harness.trial_overhead_us": (_median(per_trial), "us"),
        "harness.emit_csv_ms": (per_call_ms("harness.emit_csv", dur), "ms"),
        "exact.tree_distribution_ms": (per_call_ms("exact.tree_distribution", dur), "ms"),
        "exact.chi_square_ms": (per_call_ms("exact.chi_square", dur), "ms"),
        "trace.overhead_frac": (_median(span_walls_ns) / _median(plain_walls_ns) - 1.0
                                if plain_walls_ns else 0.0, "ratio"),
    })
    return m


def layer_table(tracer: Tracer, span_walls_ns) -> list[str]:
    """Self time per module per span pass, with its share of the traced pass."""
    name_id, _, self_ns, _ = tracer.arrays()
    passes = [(lo, hi) for kind, lo, hi in tracer.segments if kind == "spans"]
    per_name = np.zeros(len(tracer.names))
    for lo, hi in passes:
        per_name += np.bincount(name_id[lo:hi], weights=self_ns[lo:hi],
                                minlength=len(tracer.names))
    per_layer = defaultdict(float)
    for name, total in zip(tracer.names, per_name):
        per_layer[name.split(".", 1)[0]] += total
    wall = _median(span_walls_ns)
    lines = [f"{'module':<12} {'self ms/pass':>13} {'share':>7}"]
    for layer in LAYERS:
        ms = per_layer[layer] / max(len(passes), 1) / 1e6
        lines.append(f"{layer:<12} {ms:>13.3f} {ms * 1e6 / wall if wall else 0:>7.1%}")
    return lines

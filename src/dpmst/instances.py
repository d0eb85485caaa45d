"""Instance generators for the three experiment families, plus edge-list file I/O.

Edge-list text format (UTF-8, LF newlines): lines starting with ``#`` are
comments; the first non-comment line is ``n m delta_inf``; then m lines
``u v w`` with 1-based endpoints and a decimal weight.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .graph import DisconnectedError, WeightedGraph, build_graph
from .rng import RngStream


class GenerationError(RuntimeError):
    """A generator could not produce a valid instance (e.g. connectivity cap)."""


class ParseError(ValueError):
    """Malformed instance file; the message names the offending line."""


def erdos_renyi_instance(n: int, p: float, wmin: float, wmax: float,
                         stream: RngStream, max_attempts: int = 1000) -> WeightedGraph:
    """G(n, p) with uniform weights on [wmin, wmax], resampled until connected.

    Each attempt draws its edges and then their weights; a disconnected
    attempt, which ``build_graph`` refuses, has consumed both."""
    if n < 1 or not 0.0 <= p <= 1.0 or wmax < wmin:
        raise ValueError(f"bad parameters: n={n}, p={p}, wmin={wmin}, wmax={wmax}")
    iu, iv = np.triu_indices(n, k=1)
    iu, iv = iu + 1, iv + 1
    for _ in range(max_attempts):
        if p >= 1.0:
            keep = np.ones(len(iu), dtype=bool)
        else:
            keep = stream.uniform(len(iu)) <= p
        us, vs = iu[keep], iv[keep]
        weights = wmin + (wmax - wmin) * stream.uniform(len(us))
        try:
            return build_graph(n, np.column_stack((us, vs)), weights)
        except DisconnectedError:
            continue
    raise GenerationError(
        f"no connected G({n}, {p}) sample within {max_attempts} attempts")


def mi_weight(flip_p: float, k: int) -> float:
    """Pairwise mutual information between chain bits k hops apart.

    With a = (1-2p)^k, this is (1/2) * ((1+a) * log2(1+a) + (1-a) * log2(1-a)).
    Strictly decreasing in k, nonnegative, and 0 in the independence limit.
    """
    if not 0.0 < flip_p < 0.5:
        raise ValueError(f"flip probability must lie in (0, 1/2), got {flip_p}")
    if k < 1 or int(k) != k:
        raise ValueError(f"hop distance must be a positive integer, got {k}")
    a = (1.0 - 2.0 * flip_p) ** k
    p1 = 1.0 + a
    p2 = 1.0 - a
    return 0.5 * (p1 * math.log2(p1) + (p2 * math.log2(p2) if p2 > 0.0 else 0.0))


def parity_even_prob(k: int, flip_p: float) -> float:
    """P(Binomial(k, p) is even) = 1/2 + (1/2) * (1-2p)^k."""
    if k < 0 or int(k) != k:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    if not 0.0 <= flip_p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {flip_p}")
    return 0.5 + 0.5 * (1.0 - 2.0 * flip_p) ** k


def mi_sensitivity(dataset_size: int) -> float:
    """Sensitivity of a pairwise mutual-information entry over d records: log2(d)/d."""
    if dataset_size < 2 or int(dataset_size) != dataset_size:
        raise ValueError(f"dataset size must be an integer >= 2, got {dataset_size}")
    return math.log2(dataset_size) / dataset_size


def mutual_info_chain_instance(n: int, flip_p: float, dataset_size: int) -> WeightedGraph:
    """Complete graph of negated pairwise mutual information for the bit chain.

    Negation turns the maximum spanning tree of the mutual-information matrix
    into a plain MST, whose true solution is the chain path. The instance's
    delta_inf is the mutual-information sensitivity log2(d)/d.
    """
    if n < 2:
        raise ValueError(f"need at least two vertices, got {n}")
    iu, iv = np.triu_indices(n, k=1)
    by_hops = -np.array([mi_weight(flip_p, k) for k in range(1, n)])
    return build_graph(n, np.column_stack((iu + 1, iv + 1)), by_hops[iv - iu - 1],
                       delta_inf=mi_sensitivity(dataset_size))


def hard_instance(n: int, beta: float, s: int, stream: RngStream) -> WeightedGraph:
    """Complete graph with two-stage weights: P_e ~ Beta(beta, beta), w_e ~ Bin(s, P_e)."""
    if n < 2 or beta <= 0 or s < 1 or int(s) != s:
        raise ValueError(f"bad parameters: n={n}, beta={beta}, s={s}")
    iu, iv = np.triu_indices(n, k=1)
    edges = np.column_stack((iu + 1, iv + 1))
    p_e = stream.beta(beta, beta, size=len(edges))
    weights = stream.binomial(int(s), p_e).astype(float)
    return build_graph(n, edges, weights)


def write_instance(g: WeightedGraph, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n} {g.m} {g.delta_inf!r}\n")
        for u, v, w in zip(g.u_arr.tolist(), g.v_arr.tolist(), g.weights):
            fh.write(f"{u} {v} {float(w)!r}\n")


_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", float)])


def read_instance(path) -> WeightedGraph:
    """Read an edge-list file in the format of the module docstring.

    The edge lines go to one ``np.loadtxt`` call with ``comments=None``, so
    a ``#`` anywhere among them fails it, as does any line that it cannot
    read as two int64 endpoints and a float. On such a failure the edge
    lines are read again one at a time, which accepts comments and what
    Python's ``int`` and ``float`` accept, and whose errors name the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        n, m, delta_inf = _read_header(_content_lines(fh))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no edge lines
                rows = np.loadtxt(fh, dtype=_EDGE_ROW, comments=None, ndmin=1)
            edges, weights = np.column_stack((rows["u"], rows["v"])), rows["w"]
        except ValueError:
            edges, weights = _read_edge_lines(path)
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges but file has {len(edges)}")
    return build_graph(n, edges, weights, delta_inf=delta_inf)


def _content_lines(fh):
    """(line number, stripped line) for each line neither blank nor a comment."""
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _read_header(lines) -> tuple[int, int, float]:
    """(n, m, delta_inf) from the first of ``_content_lines``."""
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(
                f"line {lineno}: header must be 'n m delta_inf', got {line!r}")
        try:
            return int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise ParseError(f"line {lineno}: cannot parse header {line!r}") from None
    raise ParseError("line 1: missing header")


def _read_edge_lines(path):
    """The edges and weights of the file, parsed one line at a time."""
    edges = []
    weights = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = _content_lines(fh)
        _read_header(lines)
        for lineno, line in lines:
            fields = line.split()
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 'u v w', got {line!r}")
            try:
                edges.append((int(fields[0]), int(fields[1])))
                weights.append(float(fields[2]))
            except ValueError:
                raise ParseError(f"line {lineno}: cannot parse edge {line!r}") from None
    return edges, weights

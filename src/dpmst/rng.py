"""Seeded random streams covering every noise distribution the mechanisms draw from."""

from __future__ import annotations

import math

import numpy as np


class RngStream:
    """A seeded, splittable source of randomness.

    Streams constructed with the same ``(seed, path)`` produce bit-identical
    sample sequences; ``derive(i)`` spawns a child stream statistically
    independent of the parent and of every sibling. The bits come from
    numpy's SFC64, keyed by ``SeedSequence(seed, spawn_key=path)``: 64-bit
    integer arithmetic, so a key draws the same bits on every platform, and
    a block of n draws reads the bits that n successive calls would read
    (``uniform`` and ``gaussian`` give the same values either way). SFC64
    is fast, not cryptographic.

    Uniform draws land in (0, 1], never exactly 0, so logarithms stay finite.
    All logs are natural logs.
    """

    def __init__(self, seed: int, path: int | tuple[int, ...] = ()):
        if isinstance(path, int):
            path = (path,)
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.SFC64(ss))

    def derive(self, stream_id: int) -> "RngStream":
        """Child stream keyed by (seed, path + (stream_id,))."""
        return RngStream(self.seed, self.path + (int(stream_id),))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"

    # -- uniform base draws ------------------------------------------------

    def uniform(self, size=None):
        """Uniform on (0, 1]."""
        if size is None:
            return 1.0 - self._gen.random()
        return 1.0 - self._gen.random(size)

    # -- continuous distributions ------------------------------------------

    def exponential(self, rate: float = 1.0, size=None):
        """Exponential with density rate * exp(-rate * x) on x >= 0."""
        if not 0 < rate < math.inf:  # also false for NaN
            raise ValueError(f"rate must be positive and finite, got {rate}")
        if size is None:
            return -math.log(1.0 - self._gen.random()) / rate
        # in place on the uniform block: -log(1 - u) / rate, bit for bit
        x = self._gen.random(size)
        np.subtract(1.0, x, out=x)
        np.log(x, out=x)
        np.negative(x, out=x)
        x /= rate
        return x

    def truncated_exponential(self, q) -> np.ndarray:
        """Unit exponentials, entry i conditioned on at most -ln(1 - q[i]),
        for q in [0, 1]: -log1p(-x q[i]) by inverse CDF, one x per entry on
        the [0, 1) grid that ``exponential`` draws from. x = 0, at 2^-53 a
        draw, gives exactly 0; q = 1 gives an unconditioned exponential.
        """
        q = np.asarray(q, dtype=float)
        if not (q.size == 0 or (q.min() >= 0 and q.max() <= 1)):  # also false for NaN
            raise ValueError("q must lie in [0, 1]")
        x = self._gen.random(q.shape)
        x *= q
        np.negative(x, out=x)
        np.log1p(x, out=x)
        np.negative(x, out=x)
        return x

    def ln_exponential(self, size=None):
        """ln of a unit exponential; the negative of a standard Gumbel sample.

        An exponential draw that rounds to 0 gives -inf.
        """
        if size is None:
            z = self.exponential(1.0)
            return math.log(z) if z > 0 else -math.inf
        z = self.exponential(1.0, size)
        with np.errstate(divide="ignore"):
            return np.log(z, out=z)

    def laplace(self, scale: float = 1.0, size=None):
        """Zero-location Laplace, built as the difference of two unit exponentials."""
        if not 0 < scale < math.inf:  # also false for NaN
            raise ValueError(f"scale must be positive and finite, got {scale}")
        if size is None:
            return scale * (self.exponential(1.0) - self.exponential(1.0))
        return scale * (self.exponential(1.0, size) - self.exponential(1.0, size))

    def gaussian(self, sigma: float = 1.0, size=None):
        """Zero-mean normal with standard deviation sigma."""
        if not 0 < sigma < math.inf:  # also false for NaN
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        # Generator.normal(0.0, sigma, size) is 0.0 + sigma * z over the same
        # standard normals z, which is sigma * z bit for bit unless that is
        # -0.0; filling z and scaling it in place skips normal's per-draw
        # broadcast of loc and scale
        if size is None:
            return sigma * self._gen.standard_normal()
        out = self._gen.standard_normal(size)
        out *= sigma
        return out

    def beta(self, alpha: float, beta: float, size=None):
        """Beta(alpha, beta) via the two-gamma construction X/(X+Y)."""
        if not (0 < alpha < math.inf and 0 < beta < math.inf):  # also false for NaN
            raise ValueError(f"shape parameters must be positive and finite, got {alpha}, {beta}")
        x = self._gen.standard_gamma(alpha, size)
        y = self._gen.standard_gamma(beta, size)
        out = x / (x + y)
        return float(out) if size is None else out

    # -- discrete ------------------------------------------------------------

    def coin_heads(self, sizes, p) -> np.ndarray:
        """The heads among independent coins, block j holding ``sizes[j]``
        coins of heads probability ``p[j]``: their 0-based positions in the
        blocks laid end to end, block by block, in no order within a block.

        Each block draws its head count k from Binomial(sizes[j], p[j]), then
        the positions of the smaller side: k distinct positions uniformly,
        or, with more heads than tails, the sizes[j] - k tails' positions,
        and the heads are the rest of the block. The complement of a uniform
        (s - k)-subset of s positions is a uniform k-subset, so both are
        exact; a block costs its smaller side, and a full block draws none.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        p = np.asarray(p, dtype=float)
        if (sizes < 0).any() or not np.all((0 <= p) & (p <= 1)):  # also false for NaN
            raise ValueError("sizes must be nonnegative and p must lie in [0, 1]")
        heads = self._gen.binomial(sizes, p)
        starts = np.cumsum(sizes) - sizes
        picks = []
        for start, size, k in zip(starts.tolist(), sizes.tolist(), heads.tolist()):
            if k > size - k:
                keep = np.ones(size, dtype=bool)
                if k < size:
                    keep[self._gen.choice(size, size - k, replace=False, shuffle=False)] = False
                picks.append(start + np.flatnonzero(keep))
            elif k:
                picks.append(start + self._gen.choice(size, k, replace=False, shuffle=False))
        return np.concatenate(picks) if picks else np.zeros(0, dtype=np.int64)

    def binomial(self, count: int, p):
        """Binomial(count, p) as a sum of count Bernoulli draws.

        ``p`` may be an array, in which case one count per entry is returned;
        a scalar ``p`` gives an int. Intended for small ``count``.
        """
        if count < 0 or int(count) != count:
            raise ValueError(f"count must be a nonnegative integer, got {count}")
        p = np.asarray(p, dtype=float)
        if not np.all((0 <= p) & (p <= 1)):  # also false for NaN
            raise ValueError("p must lie in [0, 1]")
        heads = (self._gen.random(p.shape + (int(count),)) < p[..., None]).sum(axis=-1)
        return int(heads) if p.ndim == 0 else heads

"""Seeded random streams covering every noise distribution the mechanisms draw from."""

from __future__ import annotations

import math

import numpy as np


class RngStream:
    """A seeded, splittable source of randomness.

    Streams constructed with the same ``(seed, path)`` produce bit-identical
    sample sequences; ``derive(i)`` spawns a child stream statistically
    independent of the parent and of every sibling. The generator is Philox
    (counter-based), so the mapping from key to output does not depend on
    platform word size or draw batching.

    Uniform draws land in (0, 1], never exactly 0, so logarithms stay finite.
    All logs are natural logs.
    """

    def __init__(self, seed: int, path: int | tuple[int, ...] = ()):
        if isinstance(path, int):
            path = (path,)
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))

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
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if size is None:
            return -math.log(1.0 - self._gen.random()) / rate
        return -np.log(1.0 - self._gen.random(size)) / rate

    def ln_exponential(self, size=None):
        """ln of a unit exponential; the negative of a standard Gumbel sample.

        An exponential draw that rounds to 0 gives -inf.
        """
        if size is None:
            z = self.exponential(1.0)
            return math.log(z) if z > 0 else -math.inf
        with np.errstate(divide="ignore"):
            return np.log(self.exponential(1.0, size))

    def gumbel(self, scale: float = 1.0, size=None):
        """Zero-location Gumbel with CDF exp(-exp(-z / scale))."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if size is None:
            return -scale * self.ln_exponential()
        return -scale * self.ln_exponential(size)

    def laplace(self, scale: float = 1.0, size=None):
        """Zero-location Laplace, built as the difference of two unit exponentials."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if size is None:
            return scale * (self.exponential(1.0) - self.exponential(1.0))
        return scale * (self.exponential(1.0, size) - self.exponential(1.0, size))

    def gaussian(self, sigma: float = 1.0, size=None):
        """Zero-mean normal with standard deviation sigma."""
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        out = self._gen.normal(0.0, sigma, size)
        return float(out) if size is None else out

    def beta(self, alpha: float, beta: float, size=None):
        """Beta(alpha, beta) via the two-gamma construction X/(X+Y)."""
        if alpha <= 0 or beta <= 0:
            raise ValueError(f"shape parameters must be positive, got {alpha}, {beta}")
        x = self._gen.standard_gamma(alpha, size)
        y = self._gen.standard_gamma(beta, size)
        out = x / (x + y)
        return float(out) if size is None else out

    # -- discrete ------------------------------------------------------------

    def binomial(self, count: int, p, size=None):
        """Binomial(count, p) as a sum of count Bernoulli draws.

        ``p`` may be an array, in which case one count per entry is returned
        (``size`` must then be None). Intended for small ``count``.
        """
        if count < 0 or int(count) != count:
            raise ValueError(f"count must be a nonnegative integer, got {count}")
        count = int(count)
        p_arr = np.asarray(p, dtype=float)
        if np.any(p_arr < 0) or np.any(p_arr > 1):
            raise ValueError("p must lie in [0, 1]")
        if p_arr.ndim == 0:
            if size is None:
                if count == 0:
                    return 0
                return int((self._gen.random(count) < float(p_arr)).sum())
            if count == 0:
                return np.zeros(size, dtype=np.int64)
            return (self._gen.random((size, count)) < float(p_arr)).sum(axis=1)
        if size is not None:
            raise ValueError("size is not supported with a vector of probabilities")
        if count == 0:
            return np.zeros(p_arr.shape, dtype=np.int64)
        return (self._gen.random((len(p_arr), count)) < p_arr[:, None]).sum(axis=1)

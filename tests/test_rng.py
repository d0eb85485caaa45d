import math

import numpy as np
import pytest
from scipy import integrate, stats

from dpmst.rng import RngStream

EULER_GAMMA = 0.5772156649015329


def test_same_key_bit_identical():
    a = RngStream(123, (4,))
    b = RngStream(123, (4,))
    assert np.array_equal(a.exponential(1.0, size=1000), b.exponential(1.0, size=1000))
    assert a.uniform() == b.uniform()
    assert a.binomial(5, 0.3) == b.binomial(5, 0.3)


def test_batched_draws_match_scalar_draws():
    # each scalar form is its block form at one entry, so n scalar draws
    # give the bits of one block of n. A scalar path of its own through
    # math.log once differed from the block's np.log on 357 of 100,000
    # exponential draws; the other samplers cost more a call and run 10,000
    for seed in range(3):
        vec = RngStream(seed).exponential(2.0, size=100_000)
        scalar = RngStream(seed)
        assert vec.tobytes() == np.array([scalar.exponential(2.0) for _ in vec]).tobytes()
        a, b = RngStream(seed), RngStream(seed)
        for draw, block in ((lambda s: s.ln_exponential(), lambda s, n: s.ln_exponential(size=n)),
                            (lambda s: s.gaussian(1.5), lambda s, n: s.gaussian(1.5, size=n)),
                            # two exponentials a draw, in the order the block reads them
                            (lambda s: s.laplace(0.5), lambda s, n: 0.5 * np.subtract(
                                *s.exponential(1.0, size=(n, 2)).T))):
            seq = np.array([draw(a) for _ in range(10_000)])
            assert seq.tobytes() == block(b, 10_000).tobytes()


def test_derived_streams_differ():
    root = RngStream(7)
    children = [root.derive(i).uniform(100) for i in range(3)]
    assert not np.array_equal(children[0], children[1])
    assert not np.array_equal(children[1], children[2])
    # derivation is stable regardless of parent draws
    root2 = RngStream(7)
    root2.uniform(50)
    assert np.array_equal(children[0], root2.derive(0).uniform(100))


@pytest.mark.parametrize("seed, path", [(0, ()), (123, (4,)), (2**40, (1, 2, 3))])
def test_stream_is_sfc64_keyed_by_seed_and_path(seed, path):
    # the stream contract: RngStream(seed, path) reads numpy's SFC64 keyed by
    # SeedSequence(seed, spawn_key=path), and each draw is its documented
    # formula over that generator's output
    def generator():
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=path)))

    assert np.array_equal(RngStream(seed, path).uniform(1000), 1.0 - generator().random(1000))
    assert np.array_equal(RngStream(seed, path).gaussian(2.5, size=1000),
                          2.5 * generator().standard_normal(1000))
    with np.errstate(divide="ignore"):
        block = np.log(-np.log(1.0 - generator().random((4, 250))))
    assert np.array_equal(RngStream(seed, path).ln_exponential(size=(4, 250)), block)


def test_uniform_in_half_open_interval():
    u = RngStream(1).uniform(100000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)


class TestExponential:
    def test_mean(self):
        x = RngStream(2).exponential(2.0, size=10**6)
        assert abs(x.mean() - 0.5) < 0.01

    def test_survival_at_ln2(self):
        x = RngStream(3).exponential(1.0, size=10**6)
        assert abs(np.mean(x >= math.log(2)) - 0.5) < 0.01

    def test_scaling_fact_ks(self):
        # X ~ Exp(1) implies X/4 ~ Exp(4)
        x = RngStream(4).exponential(1.0, size=10**5)
        res = stats.kstest(x / 4.0, lambda t: 1.0 - np.exp(-4.0 * t))
        assert res.pvalue > 0.01

    def test_rejects_bad_rate(self):
        # a NaN or infinite rate used to pass: exponential(inf) drew zeros
        for rate in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                RngStream(0).exponential(rate)
            with pytest.raises(ValueError):
                RngStream(0).exponential(rate, size=2)


class TestLnExponential:
    def test_upper_tail_quantile(self):
        # P(Z > ln ln(1/beta)) = beta
        beta = 0.1
        z = RngStream(5).ln_exponential(size=10**6)
        assert abs(np.mean(z > math.log(math.log(1 / beta))) - beta) < 0.01

    def test_negation_is_gumbel(self):
        z = RngStream(6).ln_exponential(size=10**5)
        res = stats.kstest(-z, lambda t: np.exp(-np.exp(-t)))
        assert res.pvalue > 0.01

    def test_median(self):
        z = RngStream(7).ln_exponential(size=10**6)
        assert abs(np.median(z) - math.log(math.log(2))) < 0.01

    @pytest.mark.filterwarnings("error")
    def test_exponential_rounded_to_zero_gives_minus_inf(self):
        class ZeroGenerator:
            # every random() is 0.0, so every Exp(1) draw rounds to 0
            def random(self, size=None):
                return 0.0 if size is None else np.zeros(size)

        stream = RngStream(0)
        stream._gen = ZeroGenerator()
        assert stream.ln_exponential() == -math.inf
        assert stream.ln_exponential(size=3).tolist() == [-math.inf] * 3
        assert stream.ln_exponential(size=(2, 2)).tolist() == [[-math.inf] * 2] * 2


class TestNamedDistributions:
    def test_laplace_survival(self):
        x = RngStream(8).laplace(1.0, size=10**6)
        assert abs(np.mean(np.abs(x) > math.log(10)) - 0.1) < 0.01

    def test_gaussian_variance(self):
        x = RngStream(9).gaussian(1.0, size=10**6)
        assert abs(x.var() - 1.0) < 0.01

    @pytest.mark.parametrize("size", [None, 209850])
    @pytest.mark.parametrize("sigma", [1.0, 0.37, 1e5])
    def test_gaussian_same_bits_as_generator_normal(self, size, sigma):
        got = RngStream(11, (2,)).gaussian(sigma, size)
        want = RngStream(11, (2,))._gen.normal(0.0, sigma, size)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_gumbel_mean_is_euler_gamma(self):
        x = -RngStream(10).ln_exponential(size=10**6)
        assert abs(x.mean() - EULER_GAMMA) < 0.01
        # independent cross-check of the constant by quadrature of z * density
        mean, _ = integrate.quad(
            lambda z: z * math.exp(-(z + math.exp(-z))), -10, 60)
        assert abs(mean - EULER_GAMMA) < 1e-9

    def test_scale_domain(self):
        # a NaN or infinite scale used to pass: laplace(nan) drew NaN
        stream = RngStream(0)
        for fn in (stream.laplace, stream.gaussian):
            for scale in (0.0, -1.0, math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError):
                    fn(scale)
                with pytest.raises(ValueError):
                    fn(scale, size=2)


class TestBetaBinomial:
    def test_beta_1_1_is_uniform(self):
        x = RngStream(11).beta(1.0, 1.0, size=10**5)
        assert stats.kstest(x, "uniform").pvalue > 0.01

    def test_binomial_edge_probabilities(self):
        stream = RngStream(12)
        assert stream.binomial(7, 0.0) == 0
        assert stream.binomial(7, 1.0) == 7

    def test_symmetric_beta_mean(self):
        # alpha = beta = ln(n)/2 at n = e^2 gives Beta(1, 1)
        b = 0.5 * math.log(math.exp(2))
        x = RngStream(13).beta(b, b, size=10**6)
        assert abs(x.mean() - 0.5) < 0.01

    def test_domain_errors(self):
        stream = RngStream(0)
        with pytest.raises(ValueError):
            stream.beta(0.0, 1.0)
        with pytest.raises(ValueError):
            stream.binomial(-1, 0.5)
        with pytest.raises(ValueError):
            stream.binomial(3, 1.5)

    @pytest.mark.parametrize("shape", [0.0, -1.0, math.nan, math.inf])
    def test_beta_refuses_shapes_outside_open_positive_range(self, shape):
        # a NaN or infinite shape used to pass and draw NaN proportions
        for alpha, beta in ((shape, 1.0), (1.0, shape)):
            with pytest.raises(ValueError):
                RngStream(0).beta(alpha, beta, size=3)

    @pytest.mark.parametrize("p", [math.nan, -0.1, 1.5, [0.5, math.nan], [0.5, -0.1]])
    def test_binomial_refuses_p_outside_unit_interval(self, p):
        # random() < NaN is False, so a NaN p used to count zero successes
        with pytest.raises(ValueError):
            RngStream(0).binomial(3, p)

    def test_binomial_vector_probabilities(self):
        p = np.array([0.0, 0.5, 1.0])
        out = RngStream(14).binomial(6, p)
        assert out[0] == 0 and out[2] == 6 and 0 <= out[1] <= 6


class TestCoinHeads:
    def test_each_coin_lands_heads_at_its_block_probability(self):
        stream, reps = RngStream(15), 20000
        sizes, p = np.array([5, 3, 4]), np.array([0.3, 0.9, 0.0])
        hits = np.zeros(12)
        for _ in range(reps):
            heads = stream.coin_heads(sizes, p)
            assert len(np.unique(heads)) == len(heads)
            hits[heads] += 1
        expect = np.repeat(p, sizes)
        sigma = np.sqrt(expect * (1 - expect) / reps)
        assert (np.abs(hits / reps - expect) <= 4 * sigma + 1e-12).all()

    @pytest.mark.parametrize("p", [0.3, 0.8], ids=["heads-drawn", "tails-drawn"])
    def test_head_set_is_a_uniform_subset(self, p):
        # the head set S of one 5-coin block has probability
        # p^|S| (1 - p)^(5 - |S|); at p = 0.8 most draws have more heads than
        # tails, so the heads are the complement of the drawn tails, and
        # returning the drawn tails instead fails
        stream, reps = RngStream(17), 20000
        counts = np.zeros(32)
        for _ in range(reps):
            counts[np.bitwise_or.reduce(1 << stream.coin_heads([5], [p]), initial=0)] += 1
        size = np.array([bin(s).count("1") for s in range(32)])
        expect = reps * p ** size * (1 - p) ** (5 - size)
        assert stats.chisquare(counts, expect).pvalue > 1e-3

    def test_certain_and_impossible_blocks(self):
        heads = RngStream(16).coin_heads([4, 0, 3], [1.0, 0.5, 0.0])
        assert sorted(heads.tolist()) == [0, 1, 2, 3]
        assert RngStream(16).coin_heads([], []).tolist() == []

    @pytest.mark.parametrize("sizes, p", [([3], [math.nan]), ([3], [1.5]), ([3], [-0.1]),
                                          ([-1], [0.5])])
    def test_refuses_bad_blocks(self, sizes, p):
        with pytest.raises(ValueError):
            RngStream(0).coin_heads(sizes, p)


class TestExponentialFacts:
    def test_minimum_fact(self):
        # P(X1 is the min) = lambda_1 / (lambda_1 + lambda_2) = 1/4
        stream = RngStream(15)
        x1 = stream.exponential(1.0, size=10**5)
        x2 = stream.exponential(3.0, size=10**5)
        assert abs(np.mean(x1 < x2) - 0.25) <= 0.015

    def test_memoryless_fact(self):
        x = RngStream(16).exponential(1.0, size=10**6)
        for a in (0.5, 1.0, 2.0):
            tail = x[x >= a]
            for y in (0.5, 1.0, 2.0):
                lhs = np.mean(tail >= a + y)
                rhs = np.mean(x >= y)
                assert abs(lhs - rhs) < 0.015

    @pytest.mark.parametrize("m", [10, 100, 1000])
    def test_max_abs_log_exponential_bound(self, m):
        stream = RngStream(17 + m)
        z = np.abs(stream.ln_exponential(size=(200, m)))
        assert z.max(axis=1).mean() <= math.log(2 * math.e * m)

"""Heavy-tailed stable noise generator against scipy's implementation, the
direct transform and a 40-digit evaluation."""

import math

import numpy as np
import pytest
from scipy import stats

from alivetwist import stable_sample

from helpers import ScriptedStream, stable_direct, stable_mp, stream_for


@pytest.fixture()
def s1_parameterization():
    previous = stats.levy_stable.parameterization
    stats.levy_stable.parameterization = "S1"
    yield
    stats.levy_stable.parameterization = previous


class TestValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            stable_sample(stream_for(0), alpha=0.0, size=1)
        with pytest.raises(ValueError):
            stable_sample(stream_for(0), alpha=2.1, size=1)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            stable_sample(stream_for(0), alpha=1.5, beta=1.2, size=1)

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            stable_sample(stream_for(0), alpha=1.5, gamma=0.0, size=1)

    @pytest.mark.parametrize("gamma, delta", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan),
                                              (1.0, math.inf), (1.0, -math.inf)])
    def test_gamma_and_delta_finite(self, gamma, delta):
        with pytest.raises(ValueError):
            stable_sample(stream_for(0), alpha=1.5, gamma=gamma, delta=delta, size=3)

    def test_return_shapes(self):
        vector = stable_sample(stream_for(1), alpha=1.5, size=7)
        assert vector.shape == (7,)

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_grid_and_scalar_shapes(self, alpha):
        grid = stable_sample(stream_for(1), alpha=alpha, size=(2, 3))
        flat = stable_sample(stream_for(1), alpha=alpha, size=6)
        assert grid.shape == (2, 3) and np.array_equal(grid, flat.reshape(2, 3))
        assert stable_sample(stream_for(1), alpha=alpha, size=()).shape == ()


class TestSpecialCases:
    def test_alpha_two_is_gaussian(self):
        draws = stable_sample(stream_for(201), alpha=2.0, beta=0.7, gamma=0.4, delta=1.5, size=50_000)
        # beta has no effect at the Gaussian endpoint; variance is 2 * gamma**2
        pvalue = stats.kstest(draws, stats.norm(loc=1.5, scale=np.sqrt(2) * 0.4).cdf).pvalue
        assert pvalue > 1e-3

    def test_alpha_one_symmetric_is_cauchy(self):
        draws = stable_sample(stream_for(202), alpha=1.0, beta=0.0, gamma=0.8, delta=-0.5, size=50_000)
        pvalue = stats.kstest(draws, stats.cauchy(loc=-0.5, scale=0.8).cdf).pvalue
        assert pvalue > 1e-3

    def test_alpha_half_positive_skew_is_levy(self):
        # alpha = 1/2, beta = 1 is the one-sided Levy law with support [delta, inf)
        draws = stable_sample(stream_for(203), alpha=0.5, beta=1.0, gamma=0.6, delta=0.2, size=50_000)
        assert draws.min() >= 0.2
        pvalue = stats.kstest(draws, stats.levy(loc=0.2, scale=0.6).cdf).pvalue
        assert pvalue > 1e-3


class TestAgainstScipyGenerator:
    """Two-sample agreement with an independently coded stable generator."""

    @pytest.mark.parametrize(
        "alpha, beta, gamma, delta, seed",
        [
            (1.95, 0.05, 0.5, 0.0, 204),
            (1.5, -0.6, 1.2, 0.7, 205),
            (0.8, 0.3, 0.9, -0.4, 206),
            (1.0, 0.5, 1.5, 0.0, 207),
        ],
    )
    def test_two_sample_ks(self, s1_parameterization, alpha, beta, gamma, delta, seed):
        ours = stable_sample(stream_for(seed), alpha, beta, gamma, delta, size=20_000)
        theirs = stats.levy_stable.rvs(
            alpha, beta, loc=delta, scale=gamma, size=20_000,
            random_state=np.random.default_rng(seed),
        )
        assert stats.ks_2samp(ours, theirs).pvalue > 1e-3

    def test_scale_shift_consistency(self):
        """gamma/delta act purely as scale/shift for alpha > 1."""
        standard = stable_sample(stream_for(208), 1.7, 0.4, 1.0, 0.0, size=20_000)
        scaled = stable_sample(stream_for(209), 1.7, 0.4, 2.5, -1.0, size=20_000)
        assert stats.ks_2samp(2.5 * standard - 1.0, scaled).pvalue > 1e-3


def _lattice(values):
    """Floats on the lattice of multiples of 2^-53 that ``random`` draws from."""
    return np.round(np.asarray(values, dtype=float) * 2.0 ** 53) / 2.0 ** 53


def _scripted_sample(v, w, alpha, beta):
    stream = ScriptedStream(uniforms=v, exponentials=w)
    return stable_sample(stream, alpha, beta, size=len(v))


PAIRS = [(1.95, 0.05), (1.5, 0.6), (1.5, -0.6), (1.2, -1.0), (0.7, 0.5), (0.5, 1.0), (2.0, 0.7)]


class TestHalfAngleAccuracy:
    """The half-angle evaluation against the direct transform at the same draws."""

    @pytest.mark.parametrize("alpha, beta", PAIRS)
    def test_agrees_with_the_direct_transform(self, alpha, beta):
        ours = stable_sample(stream_for(210), alpha, beta, 0.7, 0.3, size=100_000)
        stream = stream_for(210)
        v = stream.random(100_000)
        reference = stable_direct(v, stream.exponential(1.0, 100_000), alpha, beta, 0.7, 0.3)
        np.testing.assert_allclose(ours, reference, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("alpha, beta", PAIRS)
    def test_matches_a_40_digit_evaluation(self, alpha, beta):
        ends = np.geomspace(1e-6, 0.25, 40)
        v = _lattice(np.concatenate([ends, 1.0 - ends, stream_for(211).uniform(0.3, 0.7, 40)]))
        w = stream_for(212).exponential(1.0, v.size)
        want = np.array([stable_mp(a, b, alpha, beta) for a, b in zip(v, w)])
        np.testing.assert_allclose(_scripted_sample(v, w, alpha, beta), want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("alpha", [2.0, 1.95, 1.5, 1.2, 0.7])
    @pytest.mark.parametrize("beta", [-1.0, 0.05, 1.0])
    def test_extreme_draws_are_finite_with_the_right_sign(self, alpha, beta):
        tiny = 2.0 ** -53
        v = np.repeat([tiny, 0.5 - tiny, 0.5 + tiny, 1.0 - tiny], 2)
        w = np.tile([1e-300, 50.0], 4)
        got = _scripted_sample(v, w, alpha, beta)
        want = np.array([stable_mp(a, b, alpha, beta) for a, b in zip(v, w)])
        assert np.all(np.isfinite(got))
        assert np.array_equal(np.sign(got), np.sign(want))
        # at the ends, where the heavy tail lives, the value keeps its accuracy
        ends = np.array([True, True, False, False, False, False, True, True])
        np.testing.assert_allclose(got[ends], want[ends], rtol=1e-12, atol=0.0)

    def test_zero_uniform_is_read_as_the_smallest_draw(self):
        v, w = [0.0, 2.0 ** -53], [0.8, 0.8]
        got = _scripted_sample(v, w, 1.5, 0.3)
        assert np.all(np.isfinite(got)) and got[0] == got[1]

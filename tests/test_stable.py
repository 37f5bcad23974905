"""Heavy-tailed stable noise generator against scipy's implementation."""

import numpy as np
import pytest
from scipy import stats

from alivetwist import stable_sample

from helpers import stream_for


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

    def test_return_shapes(self):
        vector = stable_sample(stream_for(1), alpha=1.5, size=7)
        assert vector.shape == (7,)


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

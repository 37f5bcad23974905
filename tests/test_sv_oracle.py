"""The volatility model's quadrature oracle, and the alive filters against it.

The twisted alive filter's known biases sit together here as strict xfails:
on the volatility model, and on a linear-Gaussian model whose twist was
built for another observation variance.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import levy_stable

from alivetwist import (
    AbcKernel,
    LinearGaussianParams,
    StochasticVolatilityParams,
    alive_filter,
    alive_twisted_filter,
    lg_model,
    lg_twist,
    simulate,
    sv_model,
    sv_twist,
)
from alivetwist.selftest import synthetic_sv_record

from helpers import (
    STABLE_TAIL_FROM,
    lg_abc_grid_log_marginal,
    monte_carlo_z,
    near_zero_window,
    stable_cdf_table,
    stream_for,
    sv_abc_grid_log_marginal,
)

PARAMS = StochasticVolatilityParams(F=0.5, nu2=0.01, alpha=1.95, beta=0.05, gamma=0.5)
KERNEL = AbcKernel(epsilon=3.5, mode="relative")


class TestStableCdfTable:
    def test_matches_levy_stable_pointwise(self):
        cdf = stable_cdf_table(PARAMS.alpha, PARAMS.beta)
        window = near_zero_window(PARAMS.alpha)
        x = np.concatenate([np.linspace(-50.0, 50.0, 401), 3.0 * stream_for(500).standard_normal(100)])
        x = x[np.abs(x) > 1.01 * window]
        np.testing.assert_allclose(cdf(x), levy_stable.cdf(x, PARAMS.alpha, PARAMS.beta),
                                   rtol=0, atol=1e-9)

    def test_near_zero_follows_the_density(self):
        """Inside scipy's flat window the table is F(0) + f(0) x to first order."""
        cdf = stable_cdf_table(PARAMS.alpha, PARAMS.beta)
        x = np.linspace(-1.0, 1.0, 21) * near_zero_window(PARAMS.alpha)
        f0 = levy_stable.cdf(0.0, PARAMS.alpha, PARAMS.beta)
        slope = levy_stable.pdf(0.0, PARAMS.alpha, PARAMS.beta)
        np.testing.assert_allclose(cdf(x), f0 + slope * x, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("alpha, beta", [(1.95, 0.05), (1.95, -0.05), (1.8, 0.0)])
    @pytest.mark.parametrize("x", [150.0, -150.0, 1e3, -1e3, 1e4, -1e4])
    def test_tail_matches_quadrature_of_the_density(self, alpha, beta, x):
        """Past where ``levy_stable.cdf`` returns exactly 0 or 1, the table's
        tail mass is the integral of ``levy_stable.pdf`` over the tail.  With
        u = z^(-1/alpha) the integrand tends to a constant at z = 0."""
        side = 1.0 if x > 0 else -1.0  # P(X < x) at x < 0 is P(-X > -x), -X at -beta

        def integrand(z):
            u = z ** (-1.0 / alpha)
            return levy_stable.pdf(u, alpha, side * beta) * u / (alpha * z)

        want, _ = quad(integrand, 0.0, abs(x) ** -alpha, epsrel=1e-8)
        got = 1.0 - stable_cdf_table(alpha, beta)(x) if x > 0 else stable_cdf_table(alpha, beta)(x)
        assert float(got) == pytest.approx(want, rel=0.01)

    @pytest.mark.parametrize("alpha, beta", [(1.95, 0.05), (1.8, 0.0)])
    def test_tail_series_meets_scipy_where_the_table_switches(self, alpha, beta):
        """At |x| = STABLE_TAIL_FROM, where the table leaves the spline for the
        series, both sides and scipy agree to a small part of the tail mass."""
        cdf = stable_cdf_table(alpha, beta)
        for x in (STABLE_TAIL_FROM, -STABLE_TAIL_FROM):
            inside = float(cdf(np.nextafter(x, 0.0)))
            at = float(cdf(x))
            scipy_value = float(levy_stable.cdf(x, alpha, beta))
            tail = min(at, 1.0 - at)
            assert abs(at - scipy_value) < 1e-4 * tail
            assert abs(inside - at) < 1e-4 * tail

    def test_gaussian_limit_has_variance_two(self):
        """At alpha = 2 the standard S1 law is N(0, 2), as stable_sample draws it."""
        x = np.linspace(-8.0, 8.0, 161)
        np.testing.assert_allclose(stable_cdf_table(2.0, 0.0)(x), ndtr(x / math.sqrt(2.0)),
                                   rtol=0, atol=1e-9)


class TestVolatilityOracle:
    def test_single_step_against_quadrature(self):
        y = 0.4
        lo, hi = KERNEL.interval(y)
        sd1 = math.sqrt((1.0 + PARAMS.F**2) * PARAMS.nu2)

        def integrand(x):
            scale = math.exp(-x / 2.0) / PARAMS.gamma
            mass = (levy_stable.cdf(hi * scale, PARAMS.alpha, PARAMS.beta)
                    - levy_stable.cdf(lo * scale, PARAMS.alpha, PARAMS.beta))
            return mass * math.exp(-0.5 * (x / sd1) ** 2) / (sd1 * math.sqrt(2.0 * math.pi))

        want, _ = quad(integrand, -8.0 * sd1, 8.0 * sd1, epsabs=1e-12)
        got = sv_abc_grid_log_marginal(PARAMS, [y], KERNEL)
        assert got == pytest.approx(math.log(want), abs=1e-8)

    def _ratios(self, run):
        observations = synthetic_sv_record(20260815, 20)
        truth = sv_abc_grid_log_marginal(PARAMS, observations, KERNEL)
        model = sv_model(PARAMS)
        return np.array([
            math.exp(run(model, observations, stream_for(501, rep))[1].log_total - truth)
            for rep in range(400)
        ])

    def test_plain_alive_is_unbiased(self):
        ratios = self._ratios(lambda m, y, s: alive_filter(m, KERNEL, y, 100, stream=s))
        assert monte_carlo_z(ratios, 1.0) < 3.0

    def test_plain_alive_is_unbiased_with_an_outlier_and_absolute_epsilon(self):
        """One observation at 10, about six times the rest's largest, under an
        absolute epsilon of 5.  The latent spread (nu2 0.2) puts the oracle's
        low-volatility grid states at stable arguments up to ~240, past where
        ``levy_stable.cdf`` saturates, so the table's tail series is in use."""
        params = StochasticVolatilityParams(F=0.5, nu2=0.2, alpha=1.95, beta=0.05, gamma=0.5)
        kernel = AbcKernel(epsilon=5.0, mode="absolute")
        model = sv_model(params)
        _, observations = simulate(model, 10, stream_for(504))
        observations[5] = 10.0
        truth = sv_abc_grid_log_marginal(params, observations, kernel)
        ratios = np.array([
            math.exp(alive_filter(model, kernel, observations, 20, stream=stream_for(503, rep))
                     [1].log_total - truth)
            for rep in range(400)
        ])
        assert monte_carlo_z(ratios, 1.0) < 3.0

    @pytest.mark.xfail(strict=True, reason="log_qh_alive integrates the acceptance under the "
                       "twist's Gaussian surrogate, not the model's stable law; E/Z ~0.985")
    def test_twisted_alive_is_unbiased(self):
        ratios = self._ratios(
            lambda m, y, s: alive_twisted_filter(m, KERNEL, sv_twist(PARAMS, 5), y, 100, stream=s)
        )
        assert monte_carlo_z(ratios, 1.0) < 3.0


class TestMismatchedTwist:
    """The twisted alive filter on lg_model(P) with a twist built for another
    tau2.  As on the volatility model, ``log_qh_alive`` integrates the
    acceptance under the twist's observation variance, not the model's."""

    MODEL = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0)
    KERNEL = AbcKernel(1.0, "absolute")

    def _ratios(self, twist_params):
        model = lg_model(self.MODEL)
        _, observations = simulate(model, 5, stream_for(1))
        truth = lg_abc_grid_log_marginal(self.MODEL, observations, self.KERNEL)
        twist = lg_twist(twist_params, 2)
        return np.array([
            math.exp(alive_twisted_filter(model, self.KERNEL, twist, observations, 20,
                                          stream=stream_for(502, rep))[1].log_total - truth)
            for rep in range(400)
        ])

    def test_matched_twist_is_unbiased(self):
        assert monte_carlo_z(self._ratios(self.MODEL), 1.0) < 3.0

    @pytest.mark.xfail(strict=True, reason="log_qh_alive integrates the acceptance under the "
                       "twist's tau2 0.2, not the model's 1.0; E/Z 2.10, z 181 on this record")
    def test_mismatched_twist_is_unbiased(self):
        mismatched = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=0.2)
        assert monte_carlo_z(self._ratios(mismatched), 1.0) < 3.0

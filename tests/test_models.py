"""Model bundles: parameter validation, samplers, and lookahead arithmetic."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from alivetwist import (
    DiscreteHmmParams,
    LinearGaussianParams,
    StochasticVolatilityParams,
    discrete_model,
    lg_model,
    simulate,
    sv_model,
)
from alivetwist.models import _norm_logpdf_into, norm_logpdf
from alivetwist.twist import ar1_lookahead_variance, lg_twist, sv_twist

from helpers import ScriptedStream, assert_same_bits, stream_for


class TestParamValidation:
    def test_lg_requires_positive_variances(self):
        with pytest.raises(ValueError):
            LinearGaussianParams(phi=0.9, nu2=0.0, tau2=1.0)
        with pytest.raises(ValueError):
            LinearGaussianParams(phi=0.9, nu2=1.0, tau2=-1.0)

    def test_sv_parameter_ranges(self):
        with pytest.raises(ValueError):
            StochasticVolatilityParams(F=0.5, nu2=1.0, alpha=2.5, beta=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            StochasticVolatilityParams(F=0.5, nu2=1.0, alpha=1.5, beta=1.5, gamma=1.0)
        with pytest.raises(ValueError):
            StochasticVolatilityParams(F=0.5, nu2=1.0, alpha=1.5, beta=0.0, gamma=0.0)
        StochasticVolatilityParams(F=0.5, nu2=1.0, alpha=2.0, beta=-1.0, gamma=0.3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, value):
        for kwargs in ({"nu2": value}, {"tau2": value}, {"phi": value}):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                LinearGaussianParams(**{"phi": 0.9, "nu2": 1.0, "tau2": 1.0, **kwargs})
        for kwargs in ({"nu2": value}, {"gamma": value}, {"F": value}, {"delta": value}):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                StochasticVolatilityParams(**{"F": 0.5, "nu2": 0.01, "alpha": 1.95, "beta": 0.0,
                                              "gamma": 0.5, **kwargs})

    def test_discrete_rows_must_be_stochastic(self):
        good = DiscreteHmmParams(
            initial=[0.5, 0.5],
            transition=[[0.9, 0.1], [0.2, 0.8]],
            emission=[[0.7, 0.3], [0.4, 0.6]],
        )
        assert good.n_states == 2
        with pytest.raises(ValueError):
            DiscreteHmmParams(
                initial=[0.5, 0.5],
                transition=[[0.9, 0.2], [0.2, 0.8]],
                emission=[[0.7, 0.3], [0.4, 0.6]],
            )


class TestLookaheadVariance:
    @pytest.mark.parametrize("phi", [0.0, 0.5, -0.8, 1.0, 1.1])
    @pytest.mark.parametrize("lag", [0, 1, 2, 5, 17])
    def test_matches_explicit_geometric_sum(self, phi, lag):
        nu2 = 0.73
        expected = nu2 * sum(phi ** (2 * i) for i in range(lag))
        assert ar1_lookahead_variance(phi, nu2, lag) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            ar1_lookahead_variance(0.9, 1.0, -1)


class TestNormLogpdf:
    @settings(max_examples=50, deadline=None)
    @given(
        x=st.floats(-50, 50),
        mean=st.floats(-50, 50),
        var=st.floats(1e-6, 1e6),
    )
    def test_matches_scipy(self, x, mean, var):
        ours = float(norm_logpdf(x, mean, var))
        ref = float(stats.norm.logpdf(x, loc=mean, scale=np.sqrt(var)))
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_vector_variance(self):
        x = np.array([0.0, 1.0, -2.0])
        var = np.array([1.0, 4.0, 0.25])
        ref = stats.norm.logpdf(x, loc=0.5, scale=np.sqrt(var))
        np.testing.assert_allclose(norm_logpdf(x, 0.5, var), ref, rtol=1e-12)


class TestInPlaceDensity:
    """``lg_model``'s density and the lookahead twists' hooks run through
    ``_norm_logpdf_into``, which must give ``norm_logpdf``'s bits."""

    TAU2 = 0.37

    def _density(self):
        return lg_model(LinearGaussianParams(phi=0.9, nu2=1.0, tau2=self.TAU2)).log_observation_density

    def _rows(self):
        stream = stream_for(104)
        return [3.0 * stream.standard_normal(n) for n in (1, 7, 200, 2000)] + [
            np.array([0.0, -0.0, 1e-300, -1e150, 1e150]), np.empty(0)]

    def test_lg_density_equals_norm_logpdf(self):
        density = self._density()
        for k in self._rows():
            for y in (0.0, 0.41, -2.7, 35.0):
                assert_same_bits(density(np.float64(y), k), norm_logpdf(np.float64(y), k, self.TAU2))

    def test_lg_density_equals_norm_logpdf_where_it_overflows(self):
        density = self._density()
        with np.errstate(over="ignore"):
            for k in self._rows() + [np.array([1e300, -1e300, -1.7e308])]:
                for y in (1e200, -1e200, 1.7e308):
                    got = density(np.float64(y), k)
                    assert_same_bits(got, norm_logpdf(np.float64(y), k, self.TAU2))
                    assert np.isneginf(got).all()

    def test_into_mean_leaves_norm_logpdf_in_mean(self):
        """With ``out=mean`` (the twists' use) the result replaces the mean."""
        log_norm = float(np.log(2.0 * np.pi)) + math.log(self.TAU2)  # as norm_logpdf forms it
        for mean in self._rows() + [np.zeros(()), np.full((), 2.5)]:
            want = norm_logpdf(0.41, mean, self.TAU2)
            buffer = mean.copy()
            got = _norm_logpdf_into(0.41, buffer, self.TAU2, log_norm, out=buffer)
            assert got is buffer
            assert_same_bits(got, np.asarray(want))


class TestLookaheadPredictive:
    def test_sampler_and_density_agree_at_lag_three(self):
        """Dual route: simulate forward with the model closures, then KS-test
        the resulting observations against the Gaussian predictive that the
        linear-Gaussian lookahead twist scores."""
        params = LinearGaussianParams(phi=0.8, nu2=0.7, tau2=0.4)
        model = lg_model(params)
        stream = stream_for(101)
        lag, start = 3, 1.3
        k = np.full(20_000, start)
        for _ in range(lag):
            k = model.transition_sampler(k, stream)
        y = model.observation_sampler(k, stream)
        var = params.tau2 + ar1_lookahead_variance(params.phi, params.nu2, lag)
        mean = params.phi**lag * start
        pvalue = stats.kstest(y, stats.norm(loc=mean, scale=np.sqrt(var)).cdf).pvalue
        assert pvalue > 1e-3
        # and the twist's log h reports exactly that Gaussian
        window = np.array([0.0] * lag + [0.3])
        got = float(lg_twist(params, lag).log_h(window, np.array([start]))[0])
        assert got == pytest.approx(float(norm_logpdf(0.3, mean, var)), rel=1e-12)


class TestLinearGaussianModel:
    def test_observation_density_matches_sampler(self):
        params = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=0.5)
        model = lg_model(params)
        stream = stream_for(102)
        k = np.full(20_000, 0.7)
        y = model.observation_sampler(k, stream)
        pvalue = stats.kstest(y, stats.norm(loc=0.7, scale=np.sqrt(0.5)).cdf).pvalue
        assert pvalue > 1e-3
        np.testing.assert_allclose(
            model.log_observation_density(1.1, np.array([0.7])),
            stats.norm.logpdf(1.1, loc=0.7, scale=np.sqrt(0.5)),
            rtol=1e-10,
        )


class TestStochasticVolatilityModel:
    def test_density_hook_absent(self):
        params = StochasticVolatilityParams(F=0.5, nu2=0.01, alpha=1.95, beta=0.05, gamma=0.5)
        model = sv_model(params)
        assert model.log_observation_density is None

    def test_lookahead_hook_uses_surrogate_variance(self):
        """The volatility twist scores the observation two steps ahead under a
        Gaussian with variance 2 * gamma**2 plus the AR(1) spread."""
        params = StochasticVolatilityParams(F=0.5, nu2=0.01, alpha=1.95, beta=0.05, gamma=0.5)
        k = np.array([0.2, -0.4])
        got = sv_twist(params, 2).log_h(np.array([0.0, 0.0, 0.9]), k)
        var = 2.0 * params.gamma**2 + ar1_lookahead_variance(params.F, params.nu2, 2)
        np.testing.assert_allclose(got, norm_logpdf(0.9, params.F**2 * k, var), rtol=1e-12)

    def test_sampler_is_observe_of_the_noise_hook(self):
        """``observation_sampler`` is ``observe`` of ``observation_noise`` on the
        same stream, bit for bit, and leaves the stream where the hook does
        (the next draw agrees)."""
        model = sv_model(StochasticVolatilityParams(F=0.5, nu2=0.01, alpha=1.95, beta=0.05,
                                                    gamma=0.5))
        k = stream_for(110).standard_normal(300)
        stream = stream_for(111)
        copied = copy.deepcopy(stream)
        np.testing.assert_array_equal(model.observation_sampler(k, stream),
                                      model.observe(k, model.observation_noise(copied, k.size)))
        assert stream.random() == copied.random()

    def test_observation_scales_with_volatility(self):
        """At alpha=2 the noise is exactly Gaussian, so exp(k/2) scaling is
        checkable against a normal law."""
        params = StochasticVolatilityParams(F=0.5, nu2=0.01, alpha=2.0, beta=0.0, gamma=0.5)
        model = sv_model(params)
        stream = stream_for(103)
        log_vol = 1.4
        y = model.observation_sampler(np.full(20_000, log_vol), stream)
        scale = np.exp(log_vol / 2.0) * np.sqrt(2.0) * params.gamma
        pvalue = stats.kstest(y, stats.norm(loc=0.0, scale=scale).cdf).pvalue
        assert pvalue > 1e-3


def test_only_the_volatility_model_has_the_noise_hook():
    lg = lg_model(LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0))
    params = DiscreteHmmParams(np.array([1.0]), np.eye(1), np.eye(1))
    for model in (lg, discrete_model(params)):
        assert model.observation_noise is None and model.observe is None


class TestDiscreteModel:
    def _params(self):
        return DiscreteHmmParams(
            initial=[0.6, 0.3, 0.1],
            transition=[[0.8, 0.1, 0.1], [0.3, 0.4, 0.3], [0.05, 0.15, 0.8]],
            emission=[[0.9, 0.1, 0.0], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]],
        )

    def test_init_sampler_frequencies(self):
        params = self._params()
        model = discrete_model(params)
        draws = model.init_state_sampler(stream_for(104), 60_000)
        for state, p in enumerate(params.initial):
            observed = (draws == state).mean()
            assert abs(observed - p) < 4 * np.sqrt(p * (1 - p) / draws.size)

    def test_transition_rows_respected(self):
        params = self._params()
        model = discrete_model(params)
        stream = stream_for(105)
        for origin in range(3):
            draws = model.transition_sampler(np.full(40_000, origin, dtype=np.int64), stream)
            for dest, p in enumerate(params.transition[origin]):
                observed = (draws == dest).mean()
                assert abs(observed - p) < 4 * np.sqrt(p * (1 - p) / draws.size) + 1e-12

    def test_emission_rows_respected_including_zero_mass(self):
        params = self._params()
        model = discrete_model(params)
        draws = model.observation_sampler(np.zeros(40_000, dtype=np.int64), stream_for(106))
        assert not np.any(draws == 2)  # emission[0, 2] == 0
        observed = (draws == 0).mean()
        assert abs(observed - 0.9) < 4 * np.sqrt(0.9 * 0.1 / draws.size)

    def test_a_zero_uniform_skips_a_leading_zero_mass_entry(self):
        """u = 0 sits on the cdf's leading 0 and picks the first entry with
        mass, as ``rng.categorical_many`` does, never the zero-mass one."""
        params = DiscreteHmmParams(initial=[0.5, 0.5], transition=[[0.0, 1.0], [0.5, 0.5]],
                                   emission=[[0.0, 1.0], [0.5, 0.5]])
        model = discrete_model(params)
        origin = np.zeros(1, dtype=np.int64)
        for sampler in (model.transition_sampler, model.observation_sampler):
            stream = ScriptedStream(uniforms=[0.0])
            np.testing.assert_array_equal(sampler(origin, stream), [1])
            assert stream.exhausted()


    def test_top_uniform_stays_inside_rows_totalling_just_below_and_above_one(self):
        """At the largest uniform, 1 - 2^-53, every draw is the row's last
        entry with mass, with no clamp, for row totals 1 - 2^-53, 1 + 2^-52
        and 1 -/+ 4e-6 (within what ``DiscreteHmmParams`` accepts)."""
        rows = [[0.25, 0.25, 0.5 - 2.0**-53, 0.0],
                [0.25, 0.25, 0.25, 0.25 + 2.0**-52],
                [0.1, 0.2, 0.3, 0.4 - 4e-6],
                [0.1, 0.2, 0.3, 0.4 + 4e-6]]
        params = DiscreteHmmParams(initial=[0.25] * 4, transition=rows, emission=rows)
        totals = np.cumsum(params.transition, axis=1)[:, -1]
        assert totals[0] == 1.0 - 2.0**-53 and totals[1] == 1.0 + 2.0**-52
        assert totals[2] < 1.0 < totals[3]
        model = discrete_model(params)
        origins = np.arange(4, dtype=np.int64)
        for sampler in (model.transition_sampler, model.observation_sampler):
            stream = ScriptedStream(uniforms=[1.0 - 2.0**-53] * 4)
            assert_same_bits(sampler(origins, stream), np.array([2, 3, 3, 3], dtype=np.int64))
            assert stream.exhausted()


class TestSimulate:
    def test_requires_positive_steps(self):
        model = lg_model(LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0))
        with pytest.raises(ValueError):
            simulate(model, 0, stream_for(107))

    def test_shapes_and_determinism(self):
        model = lg_model(LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0))
        lat_a, obs_a = simulate(model, 25, stream_for(108))
        lat_b, obs_b = simulate(model, 25, stream_for(108))
        assert lat_a.shape == obs_a.shape == (25,)
        np.testing.assert_array_equal(lat_a, lat_b)
        np.testing.assert_array_equal(obs_a, obs_b)

    def test_independent_chain_marginals(self):
        """With phi=0 every latent is an independent N(0, nu2) draw and every
        observation an independent N(0, nu2 + tau2) draw."""
        model = lg_model(LinearGaussianParams(phi=0.0, nu2=0.8, tau2=0.5))
        latents, observations = simulate(model, 20_000, stream_for(109))
        assert stats.kstest(latents, stats.norm(scale=np.sqrt(0.8)).cdf).pvalue > 1e-3
        assert stats.kstest(observations, stats.norm(scale=np.sqrt(1.3)).cdf).pvalue > 1e-3

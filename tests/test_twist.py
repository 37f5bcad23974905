"""Twist objects: internal consistency of h, qh, and the twisted samplers."""

import ast
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import ndtr

from alivetwist import (
    AbcKernel,
    DiscreteBallKernel,
    DiscreteHmmParams,
    GaussianLookaheadTwist,
    LinearGaussianParams,
    StochasticVolatilityParams,
    acceptance_prob_twist,
    constant_twist,
    discrete_model,
    lg_model,
    lg_twist,
    random_positive_twist,
    sample_until_alive,
    sv_twist,
)
from alivetwist.models import norm_logpdf
from alivetwist.twist import (
    LOG_FLOOR,
    DiscreteTableTwist,
    _log_interval_mass,
    ar1_lookahead_variance,
)

from helpers import SRC, assert_same_bits, stream_for


def _relative_imports(module: str) -> set:
    """The sibling modules ``alivetwist.<module>`` imports with ``from .x import``."""
    tree = ast.parse((SRC / "alivetwist" / f"{module}.py").read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_twists_and_filters_import_nothing_from_each_other():
    """The twists hold only their hooks; all four filters live in ``smc``."""
    assert "smc" not in _relative_imports("twist")
    assert "twist" not in _relative_imports("smc")


def _twist():
    return GaussianLookaheadTwist(phi=0.8, nu2=0.5, obs_var=0.7, lag=3)


def _discrete_params():
    return DiscreteHmmParams(
        initial=[0.5, 0.3, 0.2],
        transition=[[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]],
        emission=[[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]],
    )


_DISCRETE_KERNEL = DiscreteBallKernel(np.array([[1, 1, 0], [0, 1, 0], [0, 1, 1]], dtype=bool))


def _window(seed=230, size=6):
    return stream_for(seed).normal(size=size)


def _rejection_pairs(twist, model, anchor, window, kernel, stream, draws):
    """(states, pseudo_obs) of ``draws`` guided pairs, each the first accepted
    candidate of sample_until_alive over propose_guided_states, as the alive
    twisted filter draws them."""

    def propose(stream, count):
        states = twist.propose_guided_states(anchor, window, stream, count)
        pseudo_obs = model.observation_sampler(states, stream)
        return {"states": states, "pseudo_obs": pseudo_obs, "simulated": pseudo_obs}

    pairs = [sample_until_alive(propose, kernel, window[0], 1, 10**6, stream)[0]
             for _ in range(draws)]
    return (np.array([pool["states"][-1] for pool in pairs]),
            np.array([pool["simulated"][-1] for pool in pairs]))


class TestValidationAndTruncation:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GaussianLookaheadTwist(phi=0.8, nu2=0.0, obs_var=1.0, lag=1)
        with pytest.raises(ValueError):
            GaussianLookaheadTwist(phi=0.8, nu2=1.0, obs_var=0.0, lag=1)
        with pytest.raises(ValueError):
            GaussianLookaheadTwist(phi=0.8, nu2=1.0, obs_var=1.0, lag=-1)
        for phi, nu2, obs_var in [(0.9, math.nan, 1.0), (0.9, 1.0, math.nan),
                                  (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
                                  (0.9, math.inf, 1.0), (0.9, 1.0, math.inf),
                                  (1e155, 1.0, 1.0)]:  # phi**2 overflows
            with pytest.raises(ValueError):
                GaussianLookaheadTwist(phi=phi, nu2=nu2, obs_var=obs_var, lag=2)

    def test_lag_truncates_to_remaining_horizon(self):
        twist = _twist()
        window = _window()
        k = np.array([0.4, -1.0])
        # with only 2 observations left the effective lag is 1
        short = twist.log_h(window[:2], k)
        one_step = GaussianLookaheadTwist(phi=0.8, nu2=0.5, obs_var=0.7, lag=1)
        np.testing.assert_allclose(short, one_step.log_h(window[:2], k), rtol=1e-12)

    def test_final_step_is_untwisted(self):
        twist = _twist()
        k = np.array([0.4, -1.0, 2.0])
        np.testing.assert_array_equal(twist.log_h(_window()[:1], k), np.zeros(3))
        np.testing.assert_array_equal(twist.log_qh(_window()[:1], k), np.zeros(3))
        assert twist.log_qh(_window()[:1], None) == 0.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            _twist().log_h(np.array([]), np.array([0.0]))

    def test_nan_state_raises_degenerate(self):
        """Every hook that reads the states refuses a NaN one, at every
        effective lag; at lag 0 ``log_h`` and ``log_qh`` are the constant 0
        (h = 1) and read none."""
        twist, window = _twist(), _window()
        overflowing = GaussianLookaheadTwist(phi=1e100, nu2=1.0, obs_var=1.0, lag=5)
        k = np.array([0.0, np.nan])
        kernel = AbcKernel(epsilon=0.8, mode="absolute")
        for call in (
            lambda: twist.log_h(window, k),
            lambda: twist.log_qh(window, k),
            lambda: twist.log_qh_alive(window, k, kernel),
            lambda: twist.log_qh_alive(window[:1], k, kernel),  # the final step: lag 0
            lambda: overflowing.log_qh_alive(window, k, kernel),  # untwisted: lag 0
        ):
            with pytest.raises(ValueError, match="twist evaluated to a non-finite value"):
                call()

    def test_overflowing_lookahead_step_is_untwisted(self):
        """phi**lag past a float: every hook is the lag-0 (h = 1) twist's."""
        steep = GaussianLookaheadTwist(phi=1e100, nu2=1.0, obs_var=1.0, lag=5)
        flat = GaussianLookaheadTwist(phi=1e100, nu2=1.0, obs_var=1.0, lag=0)
        window = _window()
        kernel = AbcKernel(epsilon=0.8, mode="absolute")
        k = np.array([0.4, -1.0, 2.0])
        np.testing.assert_array_equal(steep.log_h(window, k), flat.log_h(window, k))
        for states, anchor in ((k, 0.4), (None, None)):
            np.testing.assert_array_equal(steep.log_qh(window, states), flat.log_qh(window, states))
            np.testing.assert_array_equal(steep.log_qh_alive(window, states, kernel),
                                          flat.log_qh_alive(window, states, kernel))
            np.testing.assert_array_equal(
                steep.propose_guided_states(anchor, window, stream_for(233), 5),
                flat.propose_guided_states(anchor, window, stream_for(233), 5),
            )

    def test_factories_wire_parameters(self):
        lg = lg_twist(LinearGaussianParams(phi=0.9, nu2=1.0, tau2=0.25), lag=4)
        assert (lg.phi, lg.nu2, lg.obs_var, lg.lag) == (0.9, 1.0, 0.25, 4)
        sv = sv_twist(
            StochasticVolatilityParams(F=0.5, nu2=0.01, alpha=1.95, beta=0.05, gamma=0.5),
            lag=5,
        )
        assert (sv.phi, sv.nu2, sv.lag) == (0.5, 0.01, 5)
        assert sv.obs_var == pytest.approx(2.0 * 0.5**2)


def _direct_constants(twist, window, k):
    """The constants of one hook call, written out afresh as a direct
    implementation computes them on every call: (effective lag, phi**lag,
    Var(Y_(t+lag) | K_t), target observation, next-state mean, its variance)."""
    lag = min(twist.lag, len(window) - 1)
    try:
        scale = twist.phi**lag
        s2 = twist.obs_var + ar1_lookahead_variance(twist.phi, twist.nu2, lag)
        finite = math.isfinite(scale**2 + s2)
    except OverflowError:
        finite = False
    if not finite:
        lag, scale, s2 = 0, 1.0, twist.obs_var
    if k is None:
        mean, var = np.zeros(()), (1.0 + twist.phi**2) * twist.nu2
    else:
        mean, var = twist.phi * k, twist.nu2
    return lag, scale, s2, float(window[lag]), mean, var


class TestLookaheadRows:
    @pytest.mark.parametrize("twist, state_scale", [
        (_twist(), 2.0),
        (GaussianLookaheadTwist(phi=-0.7, nu2=2.0, obs_var=0.05, lag=5), 2.0),
        (GaussianLookaheadTwist(phi=1.0, nu2=0.3, obs_var=1.5, lag=2), 2.0),
        # lag 1 only: phi**(2 lag) overflows from lag 2 on, so those steps are untwisted
        (GaussianLookaheadTwist(phi=1e100, nu2=1.0, obs_var=1.0, lag=5), 1e-100),
        (GaussianLookaheadTwist(phi=0.9, nu2=1.0, obs_var=1.0, lag=10**6), 2.0),
    ])
    def test_hooks_equal_the_direct_formulas_bit_for_bit(self, twist, state_scale):
        """The per-lag rows only move constant arithmetic out of the calls: every
        hook equals the formulas evaluated afresh, at every effective lag."""
        window = 3.0 * _window(241, 7)
        kernel = AbcKernel(epsilon=0.9, mode="relative")
        k = state_scale * stream_for(242).normal(size=9)
        for start in range(len(window)):
            y_window = window[start:]
            lo, hi = kernel.interval(float(y_window[0]))
            lag, scale, s2, target, _, _ = _direct_constants(twist, y_window, k)
            want = (np.zeros(k.shape) if lag == 0
                    else np.maximum(norm_logpdf(target, scale * k, s2), LOG_FLOOR))
            assert_same_bits(twist.log_h(y_window, k), want)
            for states, anchor in ((k, k[0]), (None, None)):
                lag, scale, s2, target, mean, var = _direct_constants(twist, y_window, states)
                if lag == 0:
                    log_qh, tilt_mean, tilt_var = np.zeros(mean.shape), mean, var
                else:
                    log_qh = np.maximum(norm_logpdf(target, scale * mean, s2 + scale**2 * var),
                                        LOG_FLOOR)
                    tilt_var = 1.0 / (1.0 / var + scale**2 / s2)
                    tilt_mean = (tilt_var / var) * mean + tilt_var * scale * target / s2
                mass = _log_interval_mass(tilt_mean, tilt_var + twist.obs_var, lo, hi)
                draws = (float(tilt_mean.flat[0])
                         + math.sqrt(tilt_var) * stream_for(243).standard_normal(5))
                assert_same_bits(twist.log_qh(y_window, states), log_qh)
                assert_same_bits(twist.log_qh_alive(y_window, states, kernel),
                                  np.maximum(log_qh + mass, LOG_FLOOR))
                assert_same_bits(
                    twist.propose_guided_states(anchor, y_window, stream_for(243), 5), draws)

    @pytest.mark.parametrize("lag", [1, 2, 5])
    @pytest.mark.parametrize("kernel", [
        AbcKernel(epsilon=0.9, mode="relative"),
        AbcKernel(epsilon=0.3, mode="absolute"),
        AbcKernel(epsilon=1e308, mode="relative"),  # overflows to the whole line for |y| > 1.8
    ], ids=["relative", "absolute", "whole-line"])
    def test_alive_hook_floors_its_sum_once(self, lag, kernel):
        """``log_qh_alive`` floors log qh + log mass only after the sum.  The
        log mass is at most 0, so that has the bits of also flooring log qh
        first, where log qh is below the floor or -inf (an overflowing square)."""
        twist = GaussianLookaheadTwist(phi=0.8, nu2=0.5, obs_var=0.7, lag=lag)
        window = 3.0 * _window(244, 7)
        k = np.array([0.0, 1.5, -4.0, 60.0, -1e3, 1e6, 1e154, -1e300, 1e300])
        below = 0
        with np.errstate(over="ignore"):
            for start in range(len(window) - 1):  # the last step is untwisted: log qh = 0
                y_window = window[start:]
                lag_t, scale, s2, target, mean, var = _direct_constants(twist, y_window, k)
                log_qh = norm_logpdf(target, scale * mean, s2 + scale**2 * var)
                tilt_var = 1.0 / (1.0 / var + scale**2 / s2)
                tilt_mean = (tilt_var / var) * mean + tilt_var * scale * target / s2
                mass = _log_interval_mass(tilt_mean, tilt_var + twist.obs_var,
                                          *kernel.interval(float(y_window[0])))
                assert lag_t > 0 and np.all(mass <= 0.0)
                below += np.count_nonzero(log_qh < LOG_FLOOR)
                assert_same_bits(twist.log_qh_alive(y_window, k, kernel),
                                 np.maximum(np.maximum(log_qh, LOG_FLOOR) + mass, LOG_FLOOR))
                assert np.isneginf(log_qh[-2:]).all()
        assert below >= 5 * (len(window) - 1)


class TestGaussianConsistency:
    """qh really is the transition integral of h (quadrature, no shared code)."""

    def test_qh_is_transition_integral_of_h(self):
        twist = _twist()
        window = _window()
        sd = math.sqrt(twist.nu2)
        for anchor in (-1.5, 0.0, 2.0):
            def integrand(x):
                h = float(twist.log_h(window, np.array([x]))[0])
                return stats.norm.pdf(x, loc=twist.phi * anchor, scale=sd) * math.exp(h)

            integral, _ = quad(integrand, -12, 12, limit=200)
            ours = math.exp(float(twist.log_qh(window, np.array([anchor]))[0]))
            assert ours == pytest.approx(integral, rel=1e-8)

    def test_init_qh_is_initial_law_integral_of_h(self):
        twist = _twist()
        window = _window()
        marginal_sd = math.sqrt((1.0 + twist.phi**2) * twist.nu2)

        def integrand(x):
            h = float(twist.log_h(window, np.array([x]))[0])
            return stats.norm.pdf(x, scale=marginal_sd) * math.exp(h)

        integral, _ = quad(integrand, -12, 12, limit=200)
        assert math.exp(twist.log_qh(window, None)) == pytest.approx(integral, rel=1e-8)

    def test_qh_alive_is_acceptance_weighted_integral(self):
        """qh_alive integrates h times the probability that a simulated
        observation (under the twist's Gaussian observation law) is accepted."""
        twist = _twist()
        window = _window()
        kernel = AbcKernel(epsilon=0.8, mode="absolute")
        lo, hi = kernel.interval(float(window[0]))
        obs_sd = math.sqrt(twist.obs_var)
        sd = math.sqrt(twist.nu2)
        for anchor in (-1.0, 0.5):
            def integrand(x):
                h = math.exp(float(twist.log_h(window, np.array([x]))[0]))
                accept = stats.norm.cdf((hi - x) / obs_sd) - stats.norm.cdf((lo - x) / obs_sd)
                return stats.norm.pdf(x, loc=twist.phi * anchor, scale=sd) * h * accept

            integral, _ = quad(integrand, -12, 12, limit=200)
            ours = math.exp(float(twist.log_qh_alive(window, np.array([anchor]), kernel)[0]))
            assert ours == pytest.approx(integral, rel=1e-8)

    def test_init_qh_alive_integral(self):
        twist = _twist()
        window = _window()
        kernel = AbcKernel(epsilon=0.8, mode="absolute")
        lo, hi = kernel.interval(float(window[0]))
        obs_sd = math.sqrt(twist.obs_var)
        marginal_sd = math.sqrt((1.0 + twist.phi**2) * twist.nu2)

        def integrand(x):
            h = math.exp(float(twist.log_h(window, np.array([x]))[0]))
            accept = stats.norm.cdf((hi - x) / obs_sd) - stats.norm.cdf((lo - x) / obs_sd)
            return stats.norm.pdf(x, scale=marginal_sd) * h * accept

        integral, _ = quad(integrand, -12, 12, limit=200)
        ours = math.exp(twist.log_qh_alive(window, None, kernel))
        assert ours == pytest.approx(integral, rel=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        phi=st.floats(-1.1, 1.1),
        nu2=st.floats(0.05, 3.0),
        obs_var=st.floats(0.05, 3.0),
        lag=st.integers(0, 6),
        epsilon=st.floats(0.05, 5.0),
        seed=st.integers(0, 2**32),
    )
    def test_acceptance_mass_only_shrinks_qh(self, phi, nu2, obs_var, lag, epsilon, seed):
        """E[W * h] <= E[h] since W is an indicator, whatever the parameters."""
        twist = GaussianLookaheadTwist(phi=phi, nu2=nu2, obs_var=obs_var, lag=lag)
        window = stream_for(seed % (2**32), 5).normal(size=lag + 1)
        kernel = AbcKernel(epsilon=epsilon, mode="absolute")
        k = stream_for(seed % (2**32), 6).normal(size=8)
        plain = twist.log_qh(window, k)
        alive = twist.log_qh_alive(window, k, kernel)
        assert np.all(alive <= plain + 1e-12)
        assert twist.log_qh_alive(window, None, kernel) <= twist.log_qh(window, None) + 1e-12

    def test_wider_interval_never_decreases_alive_mass(self):
        twist = _twist()
        window = _window()
        k = np.linspace(-2, 2, 9)
        tight = twist.log_qh_alive(window, k, AbcKernel(epsilon=0.3, mode="absolute"))
        loose = twist.log_qh_alive(window, k, AbcKernel(epsilon=1.5, mode="absolute"))
        assert np.all(loose >= tight - 1e-12)


class TestTwistedSamplers:
    def test_twisted_transition_matches_quadrature_moments(self):
        """Sampler moments against the f * h posterior computed by quadrature."""
        twist = _twist()
        window = _window()
        anchor = 0.7
        sd = math.sqrt(twist.nu2)

        def weighted(fn):
            def integrand(x):
                h = math.exp(float(twist.log_h(window, np.array([x]))[0]))
                return fn(x) * stats.norm.pdf(x, loc=twist.phi * anchor, scale=sd) * h
            return quad(integrand, -12, 12, limit=200)[0]

        total = weighted(lambda x: 1.0)
        mean = weighted(lambda x: x) / total
        var = weighted(lambda x: x * x) / total - mean**2
        draws = twist.propose_guided_states(anchor, window, stream_for(231), 30_000)
        assert abs(draws.mean() - mean) < 4 * math.sqrt(var / draws.size)
        pvalue = stats.kstest(draws, stats.norm(loc=mean, scale=math.sqrt(var)).cdf).pvalue
        assert pvalue > 1e-3

    def test_twisted_init_matches_quadrature_moments(self):
        twist = _twist()
        window = _window()
        marginal_sd = math.sqrt((1.0 + twist.phi**2) * twist.nu2)

        def weighted(fn):
            def integrand(x):
                h = math.exp(float(twist.log_h(window, np.array([x]))[0]))
                return fn(x) * stats.norm.pdf(x, scale=marginal_sd) * h
            return quad(integrand, -12, 12, limit=200)[0]

        total = weighted(lambda x: 1.0)
        mean = weighted(lambda x: x) / total
        var = weighted(lambda x: x * x) / total - mean**2
        draws = twist.propose_guided_states(None, window, stream_for(232), 30_000)
        pvalue = stats.kstest(draws, stats.norm(loc=mean, scale=math.sqrt(var)).cdf).pvalue
        assert pvalue > 1e-3


def _direct_interval_mass(mean, var, lo, hi):
    """``_log_interval_mass`` as it was written with allocating expressions."""
    sd = math.sqrt(var)
    mean = np.asarray(mean, dtype=float)
    if hi == math.inf:
        mass = ndtr((mean - lo) / sd) if lo > -math.inf else np.ones(mean.shape)
    elif lo == -math.inf:
        mass = ndtr((hi - mean) / sd)
    else:
        x = -np.abs((0.5 * lo + 0.5 * hi - mean) / sd)
        w = 0.5 * (hi - lo) / sd
        mass = ndtr(x + w) - ndtr(x - w)
    return np.log(np.maximum(mass, 1e-300))


class TestIntervalMass:
    @pytest.mark.parametrize("lo, hi", [
        (-0.5, 1.2), (10.0, 11.0), (-11.0, -10.0), (30.0, 30.0), (-0.0, math.inf),
        (-2.5, math.inf), (-math.inf, 0.4), (-math.inf, -7.0), (-math.inf, math.inf),
    ])
    def test_equals_the_direct_expressions_bit_for_bit(self, lo, hi):
        """The in-place passes give the allocating expressions' bits, for 0-d
        and array means, and leave the mean as it was."""
        stream = stream_for(233)
        for mean in [np.zeros(()), np.full((), -3.25), 4.0 * stream.standard_normal(7),
                     20.0 * stream.standard_normal(2000), np.array([0.0, -0.0, 40.0, -45.0])]:
            before = mean.copy()
            for var in (1.7, 0.04):
                assert_same_bits(_log_interval_mass(mean, var, lo, hi),
                                 _direct_interval_mass(mean, var, lo, hi))
            assert_same_bits(mean, before)

    def test_central_interval_matches_mpmath(self):
        got = float(_log_interval_mass(np.array([0.3]), 1.7, -0.5, 1.2)[0])
        sd = mpmath.sqrt(1.7)
        want = mpmath.log(mpmath.ncdf((1.2 - 0.3) / sd) - mpmath.ncdf((-0.5 - 0.3) / sd))
        assert got == pytest.approx(float(want), rel=1e-9)

    @pytest.mark.parametrize("lo, hi", [(10.0, 11.0), (-11.0, -10.0), (25.0, 26.0)])
    def test_far_tail_matches_mpmath(self, lo, hi):
        got = float(_log_interval_mass(np.array([0.0]), 1.0, lo, hi)[0])
        # N(0, 1) gives [lo, hi] the same mass as [-hi, -lo]; difference the CDF
        # on the left tail, where both values are small and do not cancel.
        if lo + hi > 0:
            lo, hi = -hi, -lo
        want = mpmath.log(mpmath.ncdf(mpmath.mpf(hi)) - mpmath.ncdf(mpmath.mpf(lo)))
        assert got == pytest.approx(float(want), rel=1e-9)

    def test_mixed_array_takes_consistent_values(self):
        """Central, far-upper, far-lower and doubly-underflowed means share one
        call, so the tail pass must treat each element on its own."""
        means = np.array([0.0, 0.7, -1.3, 6.0, 9.5, 30.0, -6.0, -9.5, -25.0, 40.0, -45.0])
        var, lo, hi = 1.3, -0.8, 1.1
        got = _log_interval_mass(means, var, lo, hi)
        with mpmath.workdps(60):
            sd = mpmath.sqrt(var)
            for mean, value in zip(means, got):
                a, b = (lo - mpmath.mpf(mean)) / sd, (hi - mpmath.mpf(mean)) / sd
                if a + b > 0:  # difference the left tail, where nothing cancels
                    a, b = -b, -a
                want = max(float(mpmath.log(mpmath.ncdf(b) - mpmath.ncdf(a))), LOG_FLOOR)
                assert float(value) == pytest.approx(want, rel=1e-9), mean

    def test_hopeless_interval_floors(self):
        got = float(_log_interval_mass(np.array([0.0]), 1.0, 40.0, 41.0)[0])
        assert got == LOG_FLOOR
        # both log-CDFs underflow to -inf: still the floor, not NaN, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _log_interval_mass(np.array([0.0, 1.0]), 2.0, 1e200 - 1.5, 1e200 + 1.5)
            # a certain interval near the float maximum, whose lo + hi overflows
            near_max = _log_interval_mass(np.array([1.6e308]), 1e300, 1.5e308, 1.7e308)
        np.testing.assert_array_equal(got, [LOG_FLOOR, LOG_FLOOR])
        assert float(near_max[0]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("lo, hi", [(-0.0, math.inf), (-math.inf, 0.4), (-math.inf, math.inf)])
    def test_infinite_end_matches_mpmath(self, lo, hi):
        """An infinite end leaves a one-sided mass (the whole line: mass 1), with
        no NaN from the reflected midpoint and no warning."""
        means = np.array([-3.0, 0.0, 0.7, 12.0, -40.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _log_interval_mass(means, 1.7, lo, hi)
            scalar = _log_interval_mass(np.zeros(()), 1.7, lo, hi)
        with mpmath.workdps(60):
            sd = mpmath.sqrt(1.7)
            for mean, value in zip(means, got):
                mean = mpmath.mpf(mean)
                if hi == math.inf and lo == -math.inf:
                    mass = mpmath.mpf(1)
                elif hi == math.inf:
                    mass = mpmath.ncdf((mean - lo) / sd)
                else:
                    mass = mpmath.ncdf((hi - mean) / sd)
                want = max(float(mpmath.log(mass)), LOG_FLOOR)
                assert float(value) == pytest.approx(want, rel=1e-9, abs=1e-15), mean
        assert np.ndim(scalar) == 0 and float(scalar) == float(got[1])

    def test_empty_input(self):
        assert _log_interval_mass(np.array([]), 1.0, -1.0, 1.0).size == 0

    @pytest.mark.parametrize("lo, hi", [(-0.5, 1.2), (10.0, 11.0), (30.0, 30.0)])
    def test_scalar_mean_matches_array_mean(self, lo, hi):
        """A 0-d mean (the initial step's) takes every branch like a 1-element array."""
        got = _log_interval_mass(np.zeros(()), 1.0, lo, hi)
        assert np.ndim(got) == 0
        assert float(got) == float(_log_interval_mass(np.zeros(1), 1.0, lo, hi)[0])


class TestGuidedPair:
    def _setup(self):
        params = LinearGaussianParams(phi=0.8, nu2=0.5, tau2=0.7)
        model = lg_model(params)
        twist = lg_twist(params, lag=3)
        window = _window(240)
        kernel = AbcKernel(epsilon=0.6, mode="absolute")
        return model, twist, window, kernel

    def test_exact_pair_matches_quadrature_moments(self):
        """Rejection-drawn guided pairs against the f * h * acceptance joint
        computed by quadrature."""
        model, twist, window, kernel = self._setup()
        lo, hi = kernel.interval(float(window[0]))
        sd = math.sqrt(twist.nu2)
        obs_sd = math.sqrt(twist.obs_var)
        anchor = 0.4

        def weighted(fn):
            def integrand(x):
                h = math.exp(float(twist.log_h(window, np.array([x]))[0]))
                accept = stats.norm.cdf((hi - x) / obs_sd) - stats.norm.cdf((lo - x) / obs_sd)
                return fn(x) * stats.norm.pdf(x, loc=twist.phi * anchor, scale=sd) * h * accept
            return quad(integrand, -12, 12, limit=200)[0]

        total = weighted(lambda x: 1.0)
        mean = weighted(lambda x: x) / total
        var = weighted(lambda x: x * x) / total - mean**2
        states, obs = _rejection_pairs(twist, model, anchor, window, kernel, stream_for(244), 4000)
        assert np.all((lo <= obs) & (obs <= hi))
        assert abs(states.mean() - mean) < 4 * math.sqrt(var / states.size)
        assert abs(states.var() - var) < 0.05 * var


class TestDiscreteTableTwist:
    def _params(self):
        return _discrete_params()

    def test_table_shape_and_finiteness_validated(self):
        params = self._params()
        with pytest.raises(ValueError):
            DiscreteTableTwist(np.zeros((4, 2)), params)
        with pytest.raises(ValueError, match="twist table must be finite"):
            DiscreteTableTwist(np.array([[0.0, np.inf, 0.0]]), params)

    def test_window_length_must_match_table(self):
        twist = constant_twist(3, self._params())
        with pytest.raises(ValueError):
            twist.log_h(np.arange(5), np.array([0]))
        with pytest.raises(ValueError):
            twist.log_qh_alive(np.arange(2), None, _DISCRETE_KERNEL)
        with pytest.raises(ValueError):
            twist.propose_guided_states(None, np.arange(2), stream_for(253), 1)

    def test_qh_alive_is_exact_masked_average(self):
        params = self._params()
        table = stream_for(247).normal(size=(3, 3))
        twist = DiscreteTableTwist(table, params)
        kernel = _DISCRETE_KERNEL
        window = np.array([1, 0, 2])
        mask = kernel.acceptance[1].astype(float)
        masked_h = (params.emission @ mask) * np.exp(table[0])
        want = np.log(params.transition @ masked_h)
        np.testing.assert_allclose(
            twist.log_qh_alive(window, np.array([0, 1, 2]), kernel), want, rtol=1e-12
        )
        want_init = float(np.log((params.initial @ params.transition) @ masked_h))
        assert twist.log_qh_alive(window, None, kernel) == pytest.approx(want_init, rel=1e-12)

    def test_twisted_transition_frequencies(self):
        params = self._params()
        table = stream_for(248).normal(size=(2, 3))
        twist = DiscreteTableTwist(table, params)
        window = np.array([0, 1])
        origin = 1
        law = params.transition[origin] * np.exp(table[0])
        law = law / law.sum()
        draws = twist.propose_guided_states(origin, window, stream_for(249), 30_000)
        for state, p in enumerate(law):
            observed = (draws == state).mean()
            assert abs(observed - p) < 4 * np.sqrt(p * (1 - p) / draws.size)

    def test_draw_order_callers_keep_draw_order(self):
        """The guided candidates (the first accepted one is the guided pair)
        and the finite-state initial sampler (the stopping time is a position
        in the proposal sequence) equal an unsorted search of the same
        uniforms, not the bootstrap filters' sorted resample."""
        params = self._params()
        table = stream_for(252).normal(size=(2, 3))
        twist = DiscreteTableTwist(table, params)
        size = 64

        def unsorted_search(weights, stream):
            cdf = np.cumsum(weights)
            u = stream.random(size) * cdf[-1]
            return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)

        want = unsorted_search(params.transition[1] * np.exp(table[0]), stream_for(254))
        assert np.any(np.diff(want) < 0)  # draw order is not sorted order here
        np.testing.assert_array_equal(
            twist.propose_guided_states(1, np.arange(2), stream_for(254), size), want
        )
        want = unsorted_search(params.initial, stream_for(255))
        assert np.any(np.diff(want) < 0)
        np.testing.assert_array_equal(
            discrete_model(params).init_state_sampler(stream_for(255), size), want
        )

    def test_guided_pair_exact_frequencies(self):
        """Rejection-drawn guided pairs against the exact lattice law."""
        params = self._params()
        twist = DiscreteTableTwist(stream_for(250).normal(size=(2, 3)), params)
        kernel = _DISCRETE_KERNEL
        window = np.array([2, 1])
        mask = kernel.acceptance[2].astype(float)
        masked_h = (params.emission @ mask) * twist._h[0]
        lattice = params.transition[0] * masked_h
        lattice = lattice / lattice.sum()
        states, symbols = _rejection_pairs(
            twist, discrete_model(params), 0, window, kernel, stream_for(251), 20_000
        )
        assert set(np.unique(symbols)).issubset(set(np.flatnonzero(mask)))
        for state, p in enumerate(lattice):
            observed = (states == state).mean()
            assert abs(observed - p) < 4 * np.sqrt(p * (1 - p) / states.size)


class TestTwistFactories:
    def test_constant_twist_is_all_zeros(self):
        params = _discrete_params()
        twist = constant_twist(5, params)
        np.testing.assert_array_equal(twist.log_h_table, np.zeros((5, 3)))

    def test_random_positive_twist_shape_and_scale(self):
        params = _discrete_params()
        twist = random_positive_twist(4, params, stream_for(252), scale=0.5)
        assert twist.log_h_table.shape == (4, 3)
        assert np.all(np.isfinite(twist.log_h_table))

    def test_acceptance_prob_twist_rejects_a_negative_lag(self):
        """A negative lag would give h = 1 everywhere; it is rejected, as the
        Gaussian twist and the run configs reject it."""
        with pytest.raises(ValueError, match="lag must be nonnegative"):
            acceptance_prob_twist(_discrete_params(), _DISCRETE_KERNEL, np.array([0, 2, 1]), -1)

    def test_acceptance_prob_twist_matches_enumeration(self):
        """h_t(k) must equal the exact probability that fresh simulations
        from k pass the acceptance sets of the next lag observations."""
        params = _discrete_params()
        observations = np.array([0, 2, 1, 1])
        lag = 2
        twist = acceptance_prob_twist(params, _DISCRETE_KERNEL, observations, lag)
        mass = params.emission @ _DISCRETE_KERNEL.acceptance.T.astype(float)
        n = params.n_states
        for t in range(4):
            horizon = min(lag, 3 - t)
            for k in range(n):
                total = 0.0
                if horizon == 0:
                    total = 1.0
                elif horizon == 1:
                    for j in range(n):
                        total += params.transition[k, j] * mass[j, int(observations[t + 1])]
                else:
                    for j in range(n):
                        for l in range(n):
                            total += (
                                params.transition[k, j]
                                * mass[j, int(observations[t + 1])]
                                * params.transition[j, l]
                                * mass[l, int(observations[t + 2])]
                            )
                assert math.exp(twist.log_h_table[t, k]) == pytest.approx(total, rel=1e-10)

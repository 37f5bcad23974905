"""Exact linear-Gaussian marginal likelihood against a joint-density oracle."""

import math

import numpy as np
import pytest
from scipy import stats

from alivetwist import LinearGaussianParams, kalman_log_marginal, lg_model, simulate
from alivetwist.models import norm_logpdf

from helpers import stream_for


def joint_gaussian_log_marginal(params: LinearGaussianParams, observations) -> float:
    """Oracle: build the full joint covariance of (Y_1, ..., Y_T) and score it.

    The latent chain starts at K_0 ~ N(0, nu2) and the first scored state is
    K_1 = phi * K_0 + noise, so Var(K_1) = (1 + phi**2) * nu2,
    Var(K_t) = phi**2 * Var(K_{t-1}) + nu2, and
    Cov(K_s, K_t) = phi**|t-s| * Var(K_min(s,t)).  Observations add tau2 on
    the diagonal.  This path never touches the filtering recursion.
    """
    observations = np.asarray(observations, dtype=float)
    n = observations.size
    variances = np.empty(n)
    variances[0] = (1.0 + params.phi**2) * params.nu2
    for t in range(1, n):
        variances[t] = params.phi**2 * variances[t - 1] + params.nu2
    cov = np.empty((n, n))
    for s in range(n):
        for t in range(n):
            cov[s, t] = params.phi ** abs(t - s) * variances[min(s, t)]
    cov[np.diag_indices(n)] += params.tau2
    return float(stats.multivariate_normal(mean=np.zeros(n), cov=cov).logpdf(observations))


@pytest.mark.parametrize(
    "phi, nu2, tau2, seed",
    [
        (0.9, 1.0, 1.0, 301),
        (-0.7, 0.3, 2.0, 302),
        (0.0, 1.5, 0.5, 303),
        (1.05, 0.2, 0.8, 304),  # mildly explosive chain still has a valid joint law
    ],
)
def test_recursion_matches_joint_density(phi, nu2, tau2, seed):
    params = LinearGaussianParams(phi=phi, nu2=nu2, tau2=tau2)
    _, observations = simulate(lg_model(params), 15, stream_for(seed))
    ours = kalman_log_marginal(params, observations)
    oracle = joint_gaussian_log_marginal(params, observations)
    assert ours == pytest.approx(oracle, rel=1e-10, abs=1e-10)


def test_single_observation_closed_form():
    params = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0)
    y = 0.42
    expected = float(norm_logpdf(y, 0.0, (1.0 + 0.81) * 1.0 + 1.0))
    assert kalman_log_marginal(params, [y]) == pytest.approx(expected, rel=1e-12)


def test_empty_block_is_identity():
    params = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0)
    assert kalman_log_marginal(params, []) == 0.0


def numpy_kalman_log_marginal(params: LinearGaussianParams, observations) -> float:
    """The same Kalman recursion with each step scored by numpy arithmetic:
    the innovation is a 0-d array, squared by ``**``."""
    phi, nu2, tau2 = params.phi, params.nu2, params.tau2
    mean, var = 0.0, phi * phi * nu2 + nu2
    loglik = 0.0
    for y in np.asarray(observations, dtype=float):
        innov_var = var + tau2
        loglik += float(-0.5 * (float(np.log(2.0 * np.pi)) + math.log(innov_var)
                                + (np.asarray(y) - mean) ** 2 / innov_var))
        gain = var / innov_var
        mean = phi * (mean + gain * (y - mean))
        var = phi * phi * ((1.0 - gain) * var) + nu2
    return loglik


@pytest.mark.parametrize("phi", [0.0, 0.9, 1.0, 1.5])
@pytest.mark.parametrize("steps", [1, 50, 500])
def test_scalar_recursion_is_bit_identical_to_numpy(phi, steps):
    scales = np.logspace(-6, 6, 5)
    for i, nu2 in enumerate(scales):
        for j, tau2 in enumerate(scales):
            params = LinearGaussianParams(phi=phi, nu2=float(nu2), tau2=float(tau2))
            _, observations = simulate(lg_model(params), steps, stream_for(310 + 5 * i + j))
            assert kalman_log_marginal(params, observations) == numpy_kalman_log_marginal(
                params, observations)

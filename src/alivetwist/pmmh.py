"""Particle-marginal Metropolis-Hastings on top of the alive filters.

The chain machinery is generic: it takes three callables — a log prior, a
proposal returning (candidate, log proposal correction), and a filter runner
mapping (parameter, stream) to (generations, estimate) — so the plain and
twisted alive filters, or a finite-grid toy parameter space, slot in without
touching the kernel of the algorithm.  The chain carries the parameter and
its log estimate only and never reads the filter's generations; its
parameter marginal is the same as if it carried a latent path (Andrieu,
Doucet & Holenstein 2010).

A filter run that exhausts its proposal cap counts as an immediate rejection
(and is tallied), which keeps the chain well defined when a candidate
parameter makes the tolerance practically unreachable.

Early rejection (after Solonen et al., Bayesian Analysis 2012).  The uniform
of the Metropolis-Hastings test is drawn before the candidate's filter runs,
so the test "accept iff log u < log ratio" becomes "accept iff the
candidate's log estimate exceeds needed = log u - (prior ratio + proposal
correction) + the current log estimate".  Every plain alive factor
(N - 1) / (T - 1) is at most 1, so the candidate's running log estimate can
only fall; once it is certain to end at or below ``needed`` the candidate is
certain to be rejected, and the filter stops there (see
``smc.rejection_floor``).  Every decision is the one the full run would have
made, so the chain's law is unchanged; its output for a given seed differs
from a chain that draws u after the filter, because the stream is consumed
in a different order.  The twisted alive filter ignores the floor: its
factor is not bounded by 1 for a general twist, so its running estimate is
not monotone and always runs to the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .rng import gaussian
from .smc import EarlyRejection, StoppingTimeCapError, rejection_floor


class ChainStartError(RuntimeError):
    """Raised when no prior draw gives a filter run that stays within its cap."""


# ---------------------------------------------------------------------------
# autocorrelation diagnostic
# ---------------------------------------------------------------------------


def acf(series, max_lag: int) -> np.ndarray:
    """Empirical autocorrelation at lags 0..max_lag (biased covariances).

    Raises ValueError for a series shorter than the requested lags or with
    zero variance.  A constant series is caught before centring: its mean
    can round off the constant, and the residue would read as a perfect
    correlation.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("series must be one-dimensional")
    n = series.size
    if max_lag < 0:
        raise ValueError(f"max_lag must be nonnegative, got {max_lag}")
    if n <= max_lag:
        raise ValueError(f"series of length {n} is shorter than the requested {max_lag} lags")
    centred = series - series.mean()
    denom = float(np.dot(centred, centred)) / n
    # min == max tests the series itself, not its centred residue; denom catches
    # distinct values whose squared deviations underflow
    if series.min() == series.max() or denom <= 0.0:
        raise ValueError("zero variance series has no autocorrelation")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for lag in range(1, max_lag + 1):
        out[lag] = float(np.dot(centred[:-lag], centred[lag:])) / n / denom
    return out


# ---------------------------------------------------------------------------
# volatility-model parameter space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SvTheta:
    """The sampled parameters: autoregression weight and the two variances."""

    F: float
    nu2: float
    gamma: float


@dataclass(frozen=True)
class SvPriorSpec:
    """Priors: F Gaussian; 1/nu2 and 1/gamma Gamma(shape, scale).

    The log density is expressed in the sampled coordinates (nu2, gamma), so
    it includes the inverse-transform Jacobians.
    """

    f_mean: float = 0.0
    f_var: float = 0.15
    inv_nu2_shape: float = 2.0
    inv_nu2_scale: float = 100.0
    inv_gamma_shape: float = 2.0
    inv_gamma_scale: float = 1.0


@dataclass(frozen=True)
class SvProposalSpec:
    """Random-walk proposal: Gaussian on F, Gaussian on log nu2 and log gamma."""

    f_step_var: float = 1.0
    log_step_var: float = 0.5


def _log_gamma_pdf(x: float, shape: float, scale: float) -> float:
    return (shape - 1.0) * math.log(x) - x / scale - shape * math.log(scale) - math.lgamma(shape)


def sv_log_prior(spec: SvPriorSpec, theta: SvTheta) -> float:
    """Log prior density of theta in the (F, nu2, gamma) coordinates."""
    finite = all(math.isfinite(x) for x in (theta.F, theta.nu2, theta.gamma))
    if not finite or theta.nu2 <= 0 or theta.gamma <= 0:
        return float("-inf")
    lp = -0.5 * (math.log(2 * math.pi * spec.f_var) + (theta.F - spec.f_mean) ** 2 / spec.f_var)
    # inverse-parameter Gamma priors, with d(1/x)/dx = -1/x^2 Jacobians
    lp += _log_gamma_pdf(1.0 / theta.nu2, spec.inv_nu2_shape, spec.inv_nu2_scale) - 2.0 * math.log(theta.nu2)
    lp += _log_gamma_pdf(1.0 / theta.gamma, spec.inv_gamma_shape, spec.inv_gamma_scale) - 2.0 * math.log(theta.gamma)
    return lp


def sv_sample_prior(spec: SvPriorSpec, stream: np.random.Generator) -> SvTheta:
    """Draw theta from the prior."""
    f = gaussian(stream, spec.f_mean, spec.f_var)
    nu2 = 1.0 / stream.gamma(spec.inv_nu2_shape, spec.inv_nu2_scale)
    gamma_ = 1.0 / stream.gamma(spec.inv_gamma_shape, spec.inv_gamma_scale)
    return SvTheta(float(f), float(nu2), float(gamma_))


def sv_propose(spec: SvProposalSpec, theta: SvTheta, stream: np.random.Generator):
    """Random-walk candidate and its log proposal-density correction.

    The log-scale walks on nu2 and gamma are symmetric in log space, leaving
    a log(candidate) - log(current) correction per parameter in the sampled
    coordinates; the walk on F is symmetric as is.
    """
    f = gaussian(stream, theta.F, spec.f_step_var)
    log_nu2 = math.log(theta.nu2) + gaussian(stream, 0.0, spec.log_step_var)
    log_gamma = math.log(theta.gamma) + gaussian(stream, 0.0, spec.log_step_var)
    # np.exp saturates instead of raising on an extreme excursion; the prior
    # then scores the non-finite candidate as impossible
    candidate = SvTheta(float(f), float(np.exp(log_nu2)), float(np.exp(log_gamma)))
    correction = (log_nu2 - math.log(theta.nu2)) + (log_gamma - math.log(theta.gamma))
    return candidate, float(correction)


# ---------------------------------------------------------------------------
# the chain itself
# ---------------------------------------------------------------------------


@dataclass
class PmmhState:
    """Current point of the chain: the parameter, its log prior, and the log
    normalising-constant estimate it was accepted with."""

    theta: object
    log_prior: float
    log_zhat: float


@dataclass
class StepInfo:
    """How one transition ended.  cap_exceeded marks a filter run that hit its
    hard proposal cap, early_rejected one stopped by the rejection floor;
    log_ratio is -inf when no full estimate was made."""

    accepted: bool
    cap_exceeded: bool
    log_ratio: float
    early_rejected: bool = False


def pmmh_step(state: PmmhState, run_filter, log_prior_fn, propose_fn,
              stream: np.random.Generator):
    """One accept/reject transition of the pseudo-marginal chain; a rejection
    returns ``state`` itself.

    The stream gives the candidate, then (for a candidate of nonzero prior)
    the test's uniform, then the filter's draws.  The filter runs under the
    rejection floor ``needed`` (see the module docstring), and the candidate
    is accepted iff its log estimate exceeds ``needed``.
    """
    proposed, log_correction = propose_fn(state.theta, stream)
    log_prior = log_prior_fn(proposed)
    if not log_prior > float("-inf"):
        return state, StepInfo(False, False, float("-inf"))
    log_offset = log_prior - state.log_prior + log_correction
    u = stream.random()  # log 0 is -inf: any finite estimate then clears the test
    needed = (math.log(u) if u > 0.0 else -math.inf) - log_offset + state.log_zhat
    try:
        with rejection_floor(needed):
            _, estimate = run_filter(proposed, stream)
    except EarlyRejection:
        return state, StepInfo(False, False, float("-inf"), early_rejected=True)
    except StoppingTimeCapError:
        return state, StepInfo(False, True, float("-inf"))
    log_ratio = log_offset + estimate.log_total - state.log_zhat
    if estimate.log_total > needed:
        accepted = PmmhState(proposed, log_prior, estimate.log_total)
        return accepted, StepInfo(True, False, log_ratio)
    return state, StepInfo(False, False, log_ratio)


@dataclass
class ChainRecord:
    """Everything a chain run produces, one row per stored iteration."""

    thetas: List[object]
    log_zhats: np.ndarray
    accepted: np.ndarray
    acceptance_rate: float
    cap_exceeded: int
    iterations: int
    final_state: PmmhState
    early_rejected: int = 0

    def theta_field(self, name: str) -> np.ndarray:
        """One sampled coordinate as an array over the stored iterations."""
        return np.array([getattr(theta, name) for theta in self.thetas], dtype=float)


INIT_ATTEMPTS = 100  # prior draws tried for a chain's initial state


def run_chain(run_filter, log_prior_fn, propose_fn, sample_prior_fn,
              iterations: int, stream: np.random.Generator) -> ChainRecord:
    """Run the pseudo-marginal chain for ``iterations`` transitions.

    The initial parameter is drawn from the prior; prior draws whose filter
    run exhausts the proposal cap are redrawn up to ``INIT_ATTEMPTS`` times,
    then ChainStartError is raised.  These runs have no rejection floor.
    Row 0 of the record is the initial state.  ``cap_exceeded`` counts
    hard-cap events and ``early_rejected`` early rejections, both among the
    iterations.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    state = None
    for _ in range(INIT_ATTEMPTS):
        theta0 = sample_prior_fn(stream)
        log_prior0 = log_prior_fn(theta0)
        if log_prior0 == float("-inf"):
            continue
        try:
            _, estimate = run_filter(theta0, stream)
        except StoppingTimeCapError:
            continue
        state = PmmhState(theta0, log_prior0, estimate.log_total)
        break
    if state is None:
        raise ChainStartError(f"no viable initial parameter found in {INIT_ATTEMPTS} prior draws")

    thetas = [state.theta]
    log_zhats = [state.log_zhat]
    accepted_flags = [1]
    accept_count = 0
    cap_count = 0
    early_count = 0
    for _ in range(iterations):
        state, info = pmmh_step(state, run_filter, log_prior_fn, propose_fn, stream)
        thetas.append(state.theta)
        log_zhats.append(state.log_zhat)
        accepted_flags.append(int(info.accepted))
        accept_count += int(info.accepted)
        cap_count += int(info.cap_exceeded)
        early_count += int(info.early_rejected)
    return ChainRecord(
        thetas=thetas,
        log_zhats=np.asarray(log_zhats, dtype=float),
        accepted=np.asarray(accepted_flags, dtype=np.int64),
        acceptance_rate=accept_count / iterations if iterations else 0.0,
        cap_exceeded=cap_count,
        iterations=iterations,
        final_state=state,
        early_rejected=early_count,
    )

"""State-space models and exact reference calculations.

A model is a bundle of vectorised sampling closures (``HmmModel``) so the
filters never need to know which concrete family they are running on.  Three
families ship here:

* a linear-Gaussian autoregression with additive Gaussian noise, whose
  marginal likelihood is available exactly via a Kalman recursion;
* a log-volatility autoregression on the same AR(1) latent law, whose
  observations are scaled heavy-tailed stable draws, for which no
  observation density is available at all; and
* a small finite-state family whose forward recursion
  (:func:`discrete_abc_log_marginal`) is the exact oracle for the
  accept/reject filters.

Twists (lookahead guidance) are not part of a model; they live in
:mod:`alivetwist.twist`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .rng import categorical_many

_LOG_TWO_PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearGaussianParams:
    """AR(1) latent chain with Gaussian observation noise.

    Latent: K_0 ~ N(0, nu2), K_t = phi * K_{t-1} + N(0, nu2).
    Observed: Y_t = K_t + N(0, tau2).
    """

    phi: float
    nu2: float
    tau2: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        if not 0 < self.nu2 < math.inf:
            raise ValueError(f"nu2 must be positive and finite, got {self.nu2}")
        if not 0 < self.tau2 < math.inf:
            raise ValueError(f"tau2 must be positive and finite, got {self.tau2}")


@dataclass(frozen=True)
class StochasticVolatilityParams:
    """Log-volatility AR(1) with scaled stable observation noise.

    Latent: K_0 ~ N(0, nu2), K_t = F * K_{t-1} + N(0, nu2).
    Observed: Y_t = exp(K_t / 2) * S_t with S_t stable(alpha, beta, gamma, delta).
    """

    F: float
    nu2: float
    alpha: float
    beta: float
    gamma: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.F) and math.isfinite(self.delta)):
            raise ValueError(f"F and delta must be finite, got {self.F} and {self.delta}")
        if not 0 < self.nu2 < math.inf:
            raise ValueError(f"nu2 must be positive and finite, got {self.nu2}")
        if not 0 < self.alpha <= 2:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not -1 <= self.beta <= 1:
            raise ValueError(f"beta must be in [-1, 1], got {self.beta}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class DiscreteHmmParams:
    """Finite-state chain with finite observation alphabet.  The acceptance
    table is the kernel's (``kernels.DiscreteBallKernel``), passed alongside."""

    initial: np.ndarray
    transition: np.ndarray
    emission: np.ndarray

    def __post_init__(self) -> None:
        initial = np.asarray(self.initial, dtype=float)
        transition = np.asarray(self.transition, dtype=float)
        emission = np.asarray(self.emission, dtype=float)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "emission", emission)
        n_states = initial.shape[0]
        if initial.ndim != 1:
            raise ValueError("initial must be a probability vector")
        if transition.shape != (n_states, n_states):
            raise ValueError("transition must be square and match the state count")
        if emission.ndim != 2 or emission.shape[0] != n_states:
            raise ValueError("emission must have one row per state")
        for name, rows in (("initial", initial[None, :]), ("transition", transition), ("emission", emission)):
            if np.any(rows < 0) or not np.allclose(rows.sum(axis=1), 1.0, atol=1e-10):
                raise ValueError(f"{name} rows must be probability vectors")

    @property
    def n_states(self) -> int:
        return self.initial.shape[0]


# ---------------------------------------------------------------------------
# the model bundle
# ---------------------------------------------------------------------------


@dataclass
class HmmModel:
    """Vectorised sampling interface shared by every filter.

    All samplers accept/return 1-d arrays of latent states.
    ``log_observation_density`` is None exactly when the observation density
    is unavailable; then only the accept/reject filters apply.

    A model whose observation noise is iid and free of the state also sets
    the noise hook: ``observation_noise(stream, n)`` draws n noise values and
    ``observe(k, noise)`` maps states and their noise to observations without
    a stream, with ``observation_sampler(k, stream)`` equal to
    ``observe(k, observation_noise(stream, k.shape))``.  The alive filters
    then draw the noise in blocks (``smc.pseudo_observer``).  Both are set or
    neither is.
    """

    init_state_sampler: Callable[[np.random.Generator, int], np.ndarray]
    transition_sampler: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    observation_sampler: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    log_observation_density: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    observation_noise: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    observe: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    # not a field: bench/tracing.py's _MODEL_CLOSURES reads it by getattr on every model
    log_lookahead_predictive = None


def simulate(model: HmmModel, steps: int, stream: np.random.Generator):
    """Draw one latent/observed trajectory of the given length.

    Returns (latents, observations); latents[0] is the state after one
    transition from the initial draw, matching what the filters target.
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    k = model.init_state_sampler(stream, 1)
    latents = np.empty(steps, dtype=float)
    observations = np.empty(steps, dtype=float)
    for t in range(steps):
        k = model.transition_sampler(k, stream)
        y = model.observation_sampler(k, stream)
        latents[t] = k[0]
        observations[t] = y[0]
    return latents, observations


def norm_logpdf(x, mean, var):
    """Log density of N(mean, var); var must be positive.  The allocating
    reference that :func:`_norm_logpdf_into` reproduces bit for bit."""
    log_var = math.log(var) if np.ndim(var) == 0 else np.log(var)
    return -0.5 * (_LOG_TWO_PI + log_var + (np.asarray(x) - mean) ** 2 / var)


def _norm_logpdf_into(x, mean, var: float, log_norm: float, out=None):
    """``norm_logpdf(x, mean, var)`` bit for bit, for a scalar ``var``, in one
    buffer: ``out`` if given (it may be ``mean``), else the fresh array of
    x - mean.  ``log_norm`` = log(2 pi) + log(var) is the caller's, taken
    once.  The steps are norm_logpdf's in its order (subtract, square,
    divide, add the constant, scale by -1/2); only the operands of the last
    two swap sides, which IEEE arithmetic does not see.  The linear-Gaussian
    density and the lookahead twists' hooks compute through it."""
    d = np.subtract(x, mean, out=out)
    d *= d
    d /= var
    d += log_norm
    d *= -0.5
    return d


# ---------------------------------------------------------------------------
# model constructors
# ---------------------------------------------------------------------------


def _ar1_samplers(phi: float, nu2: float):
    """Initial and transition samplers of K_0 ~ N(0, nu2), K_t = phi * K_{t-1} + N(0, nu2)."""
    sd = float(np.sqrt(nu2))

    def init_state_sampler(stream, size):
        return sd * stream.standard_normal(size)

    def transition_sampler(k, stream):
        k = np.asarray(k, dtype=float)
        z = stream.standard_normal(k.shape)
        z *= sd
        z += phi * k
        return z

    return init_state_sampler, transition_sampler


def lg_model(params: LinearGaussianParams) -> HmmModel:
    """Linear-Gaussian model bundle with an exact observation density:
    ``norm_logpdf(y, k, tau2)`` bit for bit, by :func:`_norm_logpdf_into`."""
    tau2 = params.tau2
    obs_sd = float(np.sqrt(tau2))
    log_norm = _LOG_TWO_PI + math.log(tau2)

    def observation_sampler(k, stream):
        k = np.asarray(k, dtype=float)
        z = stream.standard_normal(k.shape)
        z *= obs_sd
        z += k
        return z

    def log_observation_density(y, k):
        return _norm_logpdf_into(y, np.asarray(k, dtype=float), tau2, log_norm)

    return HmmModel(*_ar1_samplers(params.phi, params.nu2), observation_sampler,
                    log_observation_density)


def sv_model(params: StochasticVolatilityParams) -> HmmModel:
    """Stochastic-volatility bundle; the observation density is unavailable.

    The stable noise is iid and free of the state, so the bundle carries the
    noise hook and the alive filters draw it in blocks."""

    def observation_noise(stream, size):
        return stable_sample(stream, params.alpha, params.beta, params.gamma, params.delta, size=size)

    def observe(k, noise):
        return np.exp(k / 2.0) * noise

    def observation_sampler(k, stream):
        k = np.asarray(k, dtype=float)
        return observe(k, observation_noise(stream, k.shape))

    return HmmModel(*_ar1_samplers(params.F, params.nu2), observation_sampler,
                    observation_noise=observation_noise, observe=observe)


def discrete_model(params: DiscreteHmmParams) -> HmmModel:
    """Finite-state bundle; states and observations are integer codes."""

    transition = params.transition
    emission = params.emission

    def _row_categorical(rows, stream):
        """One index per row, by the row's weights.  No count reaches the row
        length: each row total T is within ~1e-5 of 1 (``DiscreteHmmParams``),
        and ``random() * T`` rounds below T, as ``smc._resample`` proves."""
        cum = np.cumsum(rows, axis=1)
        u = stream.random(rows.shape[0]) * cum[:, -1]
        return (cum <= u[:, None]).sum(axis=1).astype(np.int64)

    def init_state_sampler(stream, size):
        return categorical_many(stream, params.initial, size)

    def transition_sampler(k, stream):
        k = np.asarray(k, dtype=np.int64)
        return _row_categorical(transition[k], stream)

    def observation_sampler(k, stream):
        k = np.asarray(k, dtype=np.int64)
        return _row_categorical(emission[k], stream)

    return HmmModel(init_state_sampler, transition_sampler, observation_sampler)


# ---------------------------------------------------------------------------
# heavy-tailed noise
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _stable_constants(alpha: float, beta: float):
    """g/2, lambda/2 with the ufunc that applies lambda's sign, and the scale
    of the alpha != 1 transform in :func:`stable_sample`.  lambda is clipped
    to g, so R = g + s * lambda is never negative after rounding."""
    g = 0.5 * math.pi * (1.0 - abs(1.0 - alpha))
    skew = beta * math.tan(g)
    lean = min(abs(math.atan(skew)), g)
    return (0.5 * g, 0.5 * lean, np.add if skew >= 0 else np.subtract,
            (1.0 + skew * skew) ** (1.0 / (2.0 * alpha)))


def stable_sample(stream, alpha: float, beta: float = 0.0, gamma: float = 1.0,
                  delta: float = 0.0, *, size):
    """An array of ``size`` stable-law variates via the Chambers-Mallows-Stuck transform.

    Uses the continuous-at-alpha=1 angle construction and then applies the
    classical location/scale convention in which, for alpha > 1, delta is the
    mean.  At alpha = 2 the output is N(delta, 2 * gamma**2); at alpha = 1,
    beta = 0 it is Cauchy with scale gamma.  Each variate takes one uniform V
    and then one exponential W, and u = (V - 1/2) pi.

    alpha = 1 evaluates the transform directly.  For alpha != 1 the transform
    is x = scale * sin t * cos(u)^(-1/alpha) * (cos(u - t) / W)^((1 - alpha) / alpha)
    with t = alpha (u + B), and the three trigonometric factors are read off
    the distance of u from the nearer end of (-pi/2, pi/2).  With
    m = 1/2 - |V - 1/2| (exact for every V that ``random`` returns), a = pi m,
    s = sign(V - 1/2) (+1 at V = 1/2), g = (pi/2)(1 - |1 - alpha|),
    lambda = atan(beta tan g) and R = g + s lambda >= 0:

        cos u = sin a,  cos(u - t) = sin(R + |alpha - 1| a),
        sin t = s sin(R + sign(alpha - 1) alpha a),

    each sine taken from its half-angle tangent tau as 2 tau / (1 + tau^2),
    so three vectorised ``tan`` calls replace two ``sin``/``cos`` and a
    ``cos``, which numpy runs unvectorised.  Near an end every angle is a
    sum of non-negative terms, so the heavy tail keeps full relative
    accuracy; at alpha = 2 the two cosines are the same float.  Against a
    40-digit evaluation at V on the ``random`` lattice in [1e-6, 1 - 1e-6]
    the relative error stayed below 5e-14 at six (alpha, beta) (the direct
    formula: up to 7e-11), and below 1e-13 down to V = 2^-53.  Where sin t
    crosses zero the error is absolute instead, about 1e-16 in t.  V = 0 is
    read as V = 2^-53.
    """
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    if not -1 <= beta <= 1:
        raise ValueError(f"beta must be in [-1, 1], got {beta}")
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")

    v = stream.random(size)
    w = stream.exponential(1.0, size)

    if alpha == 1.0:
        u = (v - 0.5) * np.pi
        half_pi = math.pi / 2.0
        shifted = half_pi + beta * u
        x = (shifted * np.tan(u) - beta * np.log(half_pi * w * np.cos(u) / shifted)) / half_pi
        return gamma * x + delta + (2.0 / math.pi) * beta * gamma * math.log(gamma)

    half_g, half_lean, lean_op, scale = _stable_constants(alpha, beta)
    v -= 0.5                                # V - 1/2, exact for every draw
    m = np.abs(v, out=np.empty_like(v))     # an array also when size is ()
    np.minimum(m, 0.5 - 2.0 ** -53, out=m)  # V = 0 reads as 2^-53
    np.subtract(0.5, m, out=m)
    # rows: half of a, of R + |alpha - 1| a and of R + sign(alpha - 1) alpha a
    z = np.empty((3,) + v.shape)
    cos_u, cos_ut, sin_t = z[0, ...], z[1, ...], z[2, ...]
    np.multiply(m, 0.5 * math.pi, out=cos_u)
    np.multiply(m, 0.5 * math.pi * abs(alpha - 1.0), out=cos_ut)
    np.copysign(half_lean, v, out=m)
    lean_op(half_g, m, out=m)
    cos_ut += m
    (np.add if alpha > 1 else np.subtract)(cos_ut, cos_u, out=sin_t)
    np.tan(z, out=z)
    d = np.multiply(z, z)
    d += 1.0
    z /= d                                  # each row is half a sine
    cos_ut /= w
    # the factors of 2 cancel: 2 * 2^(-1/alpha) * 2^((1 - alpha)/alpha) = 1
    ends = z[:2]
    np.log(ends, out=ends)
    cos_u *= -1.0 / alpha
    cos_ut *= (1.0 - alpha) / alpha
    cos_ut += cos_u
    np.exp(cos_ut, out=cos_ut)
    sin_t *= cos_ut
    sin_t *= np.copysign(scale * gamma, v, out=m)
    if delta:
        sin_t += delta
    return sin_t


# ---------------------------------------------------------------------------
# exact marginal likelihoods
# ---------------------------------------------------------------------------


def kalman_log_marginal(params: LinearGaussianParams, observations) -> float:
    """Exact log p(y_1..y_T) for the linear-Gaussian model."""
    phi, nu2, tau2 = params.phi, params.nu2, params.tau2
    mean, var = 0.0, phi * phi * nu2 + nu2
    loglik = 0.0
    for y in np.asarray(observations, dtype=float).tolist():
        innov_var = var + tau2
        d = y - mean
        loglik += -0.5 * (_LOG_TWO_PI + math.log(innov_var) + d * d / innov_var)
        gain = var / innov_var
        mean_f = mean + gain * d
        var_f = (1.0 - gain) * var
        mean = phi * mean_f
        var = phi * phi * var_f + nu2
    return loglik


def discrete_accept_masses(params: DiscreteHmmParams, kernel, observations) -> np.ndarray:
    """(steps, n_states) masses: entry [t, s] is the probability that a symbol
    freshly simulated at state s passes ``kernel`` for observation t."""
    symbols = np.arange(params.emission.shape[1])
    rows = [params.emission @ kernel.weights(symbols, y) for y in np.asarray(observations)]
    return np.array(rows).reshape(-1, params.n_states)


def discrete_abc_log_marginal(params: DiscreteHmmParams, kernel, observations) -> float:
    """Exact log acceptance-smeared marginal for the finite-state model.

    Step t contributes the mass that a freshly simulated symbol passes
    ``kernel`` for the recorded one (row t of :func:`discrete_accept_masses`),
    the exact quantity the accept/reject filters estimate with that kernel.
    Returns -inf when some observation has zero reachable acceptance mass.
    """
    p = params.initial @ params.transition
    loglik = 0.0
    for mass in discrete_accept_masses(params, kernel, observations):
        f = p * mass
        total = f.sum()
        if total <= 0.0:
            return float("-inf")
        loglik += float(np.log(total))
        p = (f / total) @ params.transition
    return loglik

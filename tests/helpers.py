"""Shared test utilities: deterministic streams, scripted fakes, and oracles."""

from __future__ import annotations

import math
import os
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import ndtr
from scipy.stats import levy_stable

from alivetwist.rng import SeedSpec, derive_stream


SRC = Path(__file__).resolve().parents[1] / "src"


def src_env(**overrides) -> dict:
    """The current environment plus ``overrides``, with the checkout's
    ``src`` first on PYTHONPATH, for tests that start a fresh interpreter."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def stream_for(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """A fresh deterministic generator for one test."""
    return derive_stream(SeedSpec(master_seed, stream_id))


class ScriptedStream:
    """Feeds pre-recorded draws to code expecting a numpy Generator.

    Each method pops from its own queue so a hand-traced run can pin every
    random choice it makes; queues the code under test never touches can be
    left empty.
    """

    def __init__(self, *, normals=(), uniforms=(), exponentials=()):
        self._normals = list(normals)
        self._uniforms = list(uniforms)
        self._exponentials = list(exponentials)

    def standard_normal(self, size=None):
        if size is None:
            return float(self._normals.pop(0))
        shape = (size,) if np.isscalar(size) else tuple(size)
        count = int(np.prod(shape)) if shape else 1
        values = [self._normals.pop(0) for _ in range(count)]
        return np.reshape(np.asarray(values, dtype=float), shape)

    def random(self, size=None):
        if size is None:
            return float(self._uniforms.pop(0))
        values = [self._uniforms.pop(0) for _ in range(int(size))]
        return np.asarray(values, dtype=float)

    def exponential(self, scale=1.0, size=None):
        if size is None:
            return float(self._exponentials.pop(0))
        values = [self._exponentials.pop(0) for _ in range(int(size))]
        return np.asarray(values, dtype=float)

    def exhausted(self) -> bool:
        """True when every scripted queue has been fully consumed."""
        return not (self._normals or self._uniforms or self._exponentials)


def stable_direct(v, w, alpha: float, beta: float, gamma: float = 1.0, delta: float = 0.0):
    """The alpha != 1 Chambers-Mallows-Stuck transform evaluated directly, with
    numpy's ``sin`` and ``cos``, at uniforms ``v`` and exponentials ``w``: the
    reference for ``stable_sample``'s half-angle evaluation."""
    skew = beta * math.tan(math.pi * alpha / 2.0)
    angle = math.atan(skew) / alpha
    scale = (1.0 + skew * skew) ** (1.0 / (2.0 * alpha))
    u = (np.asarray(v, dtype=float) - 0.5) * np.pi
    t = alpha * (u + angle)
    x = (scale * np.sin(t) / np.cos(u) ** (1.0 / alpha)
         * (np.cos(u - t) / w) ** ((1.0 - alpha) / alpha))
    return gamma * x + delta


def stable_mp(v: float, w: float, alpha: float, beta: float, digits: int = 40) -> float:
    """The same transform (gamma 1, delta 0) at one (v, w), worked at ``digits``
    significant digits from the exact values of the float inputs."""
    with mpmath.workdps(digits):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        u = (mpmath.mpf(v) - mpmath.mpf(0.5)) * mpmath.pi
        skew = b * mpmath.tan(mpmath.pi * a / 2)
        t = a * (u + mpmath.atan(skew) / a)
        x = ((1 + skew * skew) ** (1 / (2 * a)) * mpmath.sin(t) / mpmath.cos(u) ** (1 / a)
             * (mpmath.cos(u - t) / mpmath.mpf(w)) ** ((1 - a) / a))
        return float(x)


def assert_same_bits(got, want) -> None:
    """``got`` and ``want`` have the same shape, dtype and bits (signed zeros,
    infinities and NaNs included): a check that ``==`` alone would pass with
    a -0.0 for a 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def validate_generation(generation, target: int) -> None:
    """Raise ValueError unless an alive pool's structural invariants hold."""
    t = generation.stopping_time
    _require(t >= target, "stopping time cannot be below the acceptance target")
    _require(len(generation.states) == len(generation.weights) == t,
             "states and weights must both have length stopping_time")
    _require(set(np.unique(generation.weights)).issubset({0, 1}), "weights must be binary")
    _require(int(generation.weights.sum()) == target, "acceptances must hit the target exactly")
    _require(int(generation.weights[-1]) == 1, "the final stored particle must be accepted")


def _require(condition, message: str) -> None:
    """Raise ValueError(message) unless ``condition``."""
    if not condition:
        raise ValueError(message)


def monte_carlo_z(values: np.ndarray, target: float) -> float:
    """Standardised distance of a sample mean from its target."""
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / np.sqrt(values.size)
    return float(abs(values.mean() - target) / se)


def _ar1_grid_log_marginal(phi, nu2, observations, kernel, accept_mass, n_grid, span):
    """Forward recursion over a trapezoid grid of AR(1) latent states.

    Start from the density of the state one transition past the initial
    draw, N(0, (1 + phi^2) nu2); each step multiplies in
    ``accept_mass(x, lo, hi)``, the probability that a simulated observation
    from state x lands in the kernel's acceptance interval, integrates that
    product for the step's factor, then pushes the normalised posterior
    through the transition density.
    """
    observations = np.asarray(observations, dtype=float)
    v1 = (1.0 + phi * phi) * nu2
    var = v1
    max_sd = math.sqrt(v1)
    for _ in observations:
        var = phi * phi * var + nu2
        max_sd = max(max_sd, math.sqrt(var))
    limit = span * max_sd
    x = np.linspace(-limit, limit, n_grid)
    h = x[1] - x[0]
    trap = np.full(n_grid, h)
    trap[0] = trap[-1] = h / 2.0
    density = np.exp(-0.5 * x * x / v1) / math.sqrt(2.0 * math.pi * v1)
    diff = x[None, :] - phi * x[:, None]
    transition = np.exp(-0.5 * diff * diff / nu2) / math.sqrt(2.0 * math.pi * nu2)
    log_total = 0.0
    for y in observations:
        joint = density * accept_mass(x, *kernel.interval(float(y)))
        step = float(np.sum(trap * joint))
        if step <= 0.0:
            return float("-inf")
        log_total += math.log(step)
        density = (trap * joint / step) @ transition
    return log_total


def lg_abc_grid_log_marginal(params, observations, kernel, n_grid: int = 2001,
                             span: float = 8.0) -> float:
    """Absolute truth for the interval-acceptance marginal of the
    linear-Gaussian model, by deterministic grid integration.

    A simulated observation from state x is x + N(0, tau2), so it lands in
    [lo, hi] with probability ndtr((hi - x)/tau) - ndtr((lo - x)/tau).
    Shares no code with the filters under test.
    """
    tau = math.sqrt(params.tau2)

    def accept_mass(x, lo, hi):
        return ndtr((hi - x) / tau) - ndtr((lo - x) / tau)

    return _ar1_grid_log_marginal(params.phi, params.nu2, observations, kernel, accept_mass,
                                  n_grid, span)


def near_zero_window(alpha: float) -> float:
    """Half-width of the window around 0 in which ``levy_stable.cdf`` (S1,
    alpha != 1) returns its value at 0."""
    return levy_stable.piecewise_x_tol_near_zeta * alpha ** (1.0 / alpha)


STABLE_TAIL_FROM = 50.0  # |x| from which stable_cdf_table reads the tail series


def stable_tail_coefficients(alpha: float, beta: float) -> np.ndarray:
    """a_1 .. a_30 of the upper-tail series P(X > x) ~ sum_n a_n x^(-n alpha)
    as x -> inf, for the standard stable law in parameterization "S1"
    (alpha != 1), worked in mpmath at 40 digits.  From x = 50 on, at alpha 1.8
    and 1.95, terms from the ninth on are below 1e-16 of the first.

    The characteristic function is exp(-c t^alpha e^(-i theta)) for t > 0,
    with c e^(-i theta) = 1 - i beta tan(pi alpha / 2).  Expanding it in
    powers of t^alpha and inverting term by term gives
    a_n = (-1)^(n+1) c^n Gamma(n alpha) sin(n (pi alpha / 2 + theta)) / (pi n!),
    convergent for alpha < 1 and asymptotic for alpha > 1 (Zolotarev 1986,
    section 2.5); a_1 = (1 + beta) Gamma(alpha) sin(pi alpha / 2) / pi is
    the familiar leading tail.  The lower tail P(X < -x) is the upper tail
    at -beta.
    """
    if alpha == 1.0:
        raise ValueError("the tail series here needs alpha != 1")
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        skew = mpmath.mpf(beta) * mpmath.tan(mpmath.pi * a / 2)
        angle, c = mpmath.pi * a / 2 + mpmath.atan(skew), mpmath.sqrt(1 + skew * skew)
        return np.array([
            float((-1) ** (n + 1) * c**n * mpmath.gamma(n * a) * mpmath.sin(n * angle)
                  / (mpmath.pi * mpmath.factorial(n)))
            for n in range(1, 31)
        ])


def _tail_mass(coefficients: np.ndarray, alpha: float, x: np.ndarray) -> np.ndarray:
    """sum_n a_n x^(-n alpha) by Horner's rule in z = x^(-alpha), at
    x >= STABLE_TAIL_FROM (smaller x are read as STABLE_TAIL_FROM)."""
    z = np.maximum(x, STABLE_TAIL_FROM) ** -alpha
    total = np.zeros(z.shape)
    for a in coefficients[::-1]:
        total += a
        total *= z
    return total


@lru_cache(maxsize=None)
def stable_cdf_table(alpha: float, beta: float, nodes: int = 1201):
    """The standard stable CDF, parameterization "S1" (scale 1, location 0),
    as a vectorised function.

    Below |x| = ``STABLE_TAIL_FROM``, ``levy_stable.cdf`` is evaluated once
    at ``nodes`` points evenly spaced in arctan(x) over (-pi/2, pi/2), with
    CDF 0 and 1 at the ends, and interpolated by a cubic spline in that
    coordinate.  The S1 setting is restored afterwards, since it is global
    to scipy.

    scipy rounds every x with |x| < ``near_zero_window(alpha)`` to 0 (Nolan's
    workaround for the integrand's singularity there), so its CDF is flat
    across that window, off by up to the density times the window.  Nodes
    inside it are skipped, except x = 0 itself, and the spline bridges the gap.

    From |x| = ``STABLE_TAIL_FROM`` on, both the nodes and the table read
    the tail series of :func:`stable_tail_coefficients` instead: scipy's CDF
    returns exactly 0 or 1 past |x| of about 130-420, and the spline's nodes
    there lie too far apart in x to follow a power-law tail.  At 50 the
    series and scipy agree to about 2e-6 of the tail mass.  Shares no code
    with the package.
    """
    upper = stable_tail_coefficients(alpha, beta)
    lower = stable_tail_coefficients(alpha, -beta)

    def tail_cdf(x):
        """The CDF from the series, valid where |x| >= STABLE_TAIL_FROM."""
        return np.where(x > 0.0, 1.0 - _tail_mass(upper, alpha, x), _tail_mass(lower, alpha, -x))

    theta = np.linspace(-math.pi / 2.0, math.pi / 2.0, nodes)
    theta = theta[(np.abs(np.tan(theta)) >= near_zero_window(alpha)) | (theta == 0.0)]
    x_nodes = np.tan(theta[1:-1])
    far = np.abs(x_nodes) >= STABLE_TAIL_FROM
    values = np.empty(theta.size)
    values[0], values[-1] = 0.0, 1.0
    values[1:-1][far] = tail_cdf(x_nodes[far])
    previous = levy_stable.parameterization
    levy_stable.parameterization = "S1"
    try:
        values[1:-1][~far] = levy_stable.cdf(x_nodes[~far], alpha, beta)
    finally:
        levy_stable.parameterization = previous
    spline = CubicSpline(theta, values)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        near = np.clip(spline(np.arctan(x)), 0.0, 1.0)
        return np.where(np.abs(x) < STABLE_TAIL_FROM, near, tail_cdf(x))

    return cdf


def sv_abc_grid_log_marginal(params, observations, kernel, n_grid: int = 1501,
                             span: float = 8.0) -> float:
    """Absolute truth for the interval-acceptance marginal of the volatility
    model, by the same grid recursion.

    A simulated observation from state x is exp(x/2) * (gamma * S + delta)
    with S standard stable, so it lands in [lo, hi] with probability
    F_S((hi e^{-x/2} - delta)/gamma) - F_S((lo e^{-x/2} - delta)/gamma),
    F_S from :func:`stable_cdf_table`.  The filters draw S by the
    Chambers-Mallows-Stuck transform and never use this CDF.
    """
    cdf = stable_cdf_table(params.alpha, params.beta)
    gamma, delta = params.gamma, params.delta

    def accept_mass(x, lo, hi):
        scale = np.exp(-x / 2.0)
        return cdf((hi * scale - delta) / gamma) - cdf((lo * scale - delta) / gamma)

    return _ar1_grid_log_marginal(params.F, params.nu2, observations, kernel, accept_mass,
                                  n_grid, span)


def discrete_alive_variance_terms(params, kernel, observations):
    """(NB, sel): the two sums of the plain alive filter's asymptotic
    variance on a finite-state instance, (N - 1) Var(log Z_hat) -> NB + sel.

    With A_t the step-t acceptance masses (emission times the kernel's table
    row of observation t), P the transition, eta_1 = initial P,
    p_t = eta_t(A_t), eta_hat_t proportional to eta_t A_t and
    eta_(t+1) = eta_hat_t P, and backward H_T = 1, H_t = P (A_(t+1) H_(t+1)):
    NB = sum_t (1 - p_t), the negative-binomial noise of the stopping times,
    and sel = sum_(t<T) [eta_hat_t(H_t^2) / eta_hat_t(H_t)^2 - 1], the noise of
    selecting the next pool from N - 1 particles.  With h = 1 and the exact
    mass, the twisted alive filter's (N - 1) Var(log Z_hat) -> sel alone.
    Shares no code with the package.
    """
    emission = np.asarray(params.emission, dtype=float)
    transition = np.asarray(params.transition, dtype=float)
    masses = [emission @ np.asarray(kernel.acceptance, dtype=float)[int(y)]
              for y in observations]
    eta = np.asarray(params.initial, dtype=float) @ transition
    nb, posteriors = 0.0, []
    for mass in masses:
        p = float(eta @ mass)
        nb += 1.0 - p
        posteriors.append(eta * mass / p)
        eta = posteriors[-1] @ transition
    sel, h = 0.0, np.ones(transition.shape[0])
    for t in range(len(masses) - 2, -1, -1):
        h = transition @ (masses[t + 1] * h)
        sel += float(posteriors[t] @ (h * h) / (posteriors[t] @ h) ** 2 - 1.0)
    return nb, sel

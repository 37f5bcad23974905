"""Lookahead twists: the guidance the twisted filters in ``smc`` read.

A twist is a strictly positive function h of the latent state that scores how
promising a state is for the upcoming observations.  Each twisted filter step
gets one guided slot: its ancestor is chosen proportional to weight times
qh(ancestor) — where qh(k) = E[h(K_next) | K_now = k] integrates h through
one transition — and its new state is drawn from the transition density
reweighted by h.  All other slots behave exactly as in the untwisted filter.

A twist is any object with the hooks its filter reads (log domain
throughout): ``smc.twisted_bootstrap_filter`` reads ``log_h``, ``log_qh``
and ``propose_guided_states``; ``smc.alive_twisted_filter`` reads
``log_h``, ``log_qh_alive`` and ``propose_guided_states``.

* ``log_h(y_window, k)`` — elementwise over a state array ``k``, where
  ``y_window = observations[t:]`` so the current step's observation is
  ``y_window[0]``;
* ``log_qh(y_window, k)`` — log of E[h(K_next) | k], elementwise;
* ``log_qh_alive(y_window, k, kernel)`` — log E[W * h] through one
  transition plus one simulated observation, where W is the kernel's binary
  weight for the current observation: the alive filter's twist is the
  product (current-step acceptance) * h, on the state and its
  pseudo-observation;
* ``propose_guided_states(k, y_window, stream, count)`` — ``count`` iid
  next states out of the ancestor state ``k``, reweighted by h.

Each hook returns a fresh array that the filter owns and may overwrite
(``twisted_bootstrap_filter`` adds the pool's log weights into the
``log_qh`` values in place), never a view of the twist's own state.

``DiscreteTableTwist`` has no ``log_qh``: finite-state models have no
observation density, so only the alive filter runs them.

The first step is one more transition, out of a fictitious time-0 state
(Whiteley & Lee, arXiv:1210.0220): passing ``k = None`` to ``log_qh``,
``log_qh_alive`` or ``propose_guided_states`` means the next state is the
initial draw plus one transition, and the masses come back 0-d.

``GaussianLookaheadTwist`` tilts its Gaussian next-state law by the Gaussian
h: qh is the tilt's normaliser, ``propose_guided_states`` samples the tilted
law, and the alive acceptance mass enters at one line of ``log_qh_alive``, at
the tilted moments.  Every constant these need depends only on the step's
effective lag, so the twist keeps one row of them per lag and each hook is a
row lookup plus in-place arithmetic over the states.  A step is untwisted
(h = 1) at the record's last step and wherever the lookahead constants
overflow, which any positive h allows; the only error a twist raises is
``ValueError``.  Every value a hook returns is finite: log masses floor at
``LOG_FLOOR``.

The evaluation hooks must be mutually consistent (qh really is the
transition integral of h); that consistency is what keeps the reweighted
normalising-constant estimators unbiased, so it is property-tested rather
than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import _LOG_TWO_PI, DiscreteHmmParams, _norm_logpdf_into, discrete_accept_masses
from .rng import categorical_many

LOG_FLOOR = float(np.log(1e-300))


def _checked(values: np.ndarray) -> np.ndarray:
    """``values`` floored at LOG_FLOOR in place; ValueError if any is NaN or +inf."""
    if values.size and not values.max() < math.inf:  # a NaN max fails too; -inf floors below
        raise ValueError("twist evaluated to a non-finite value")
    return np.maximum(values, LOG_FLOOR, out=values)


def _scaled(k, factor: float) -> np.ndarray:
    """factor * k as a fresh float array (0-d for a scalar k) for in-place passes."""
    return np.multiply(k, factor, out=np.empty_like(k, dtype=float))


def ndtr(x, out=None):
    """``scipy.special.ndtr``, rebound on first call so the package imports no scipy."""
    global ndtr
    from scipy.special import ndtr
    return ndtr(x, out=out)


def _log_interval_mass(mean, var: float, lo: float, hi: float) -> np.ndarray:
    """log P(lo <= X <= hi) for X ~ N(mean, var), elementwise over ``mean``.

    Each finite interval is reflected onto the lower tail, where the CDF
    difference stays well conditioned, so masses far out in either tail stay
    accurate instead of cancelling to zero.  An infinite end (a relative
    kernel's half-width can overflow) leaves a one-sided mass, one CDF value,
    or 1 for the whole line.  Masses below 1e-300 floor at LOG_FLOOR.  The
    work runs in place in at most two fresh buffers (``mean`` is not
    written), bit for bit as the direct allocating expressions.
    """
    sd = math.sqrt(var)
    mean = np.asarray(mean, dtype=float)
    if lo == -math.inf and hi == math.inf:
        return np.zeros(mean.shape)  # log 1
    mass = np.empty(mean.shape)
    if lo == -math.inf or hi == math.inf:  # one CDF value
        if hi == math.inf:
            np.subtract(mean, lo, out=mass)
        else:
            np.subtract(hi, mean, out=mass)
        mass /= sd
        ndtr(mass, out=mass)
    else:
        # x: the midpoint reflected onto the lower half-line, where the CDF keeps full
        # relative precision down to the floor; halves summed so it cannot overflow
        x = np.subtract(0.5 * lo + 0.5 * hi, mean, out=mass)
        np.abs(x, out=x)
        x /= -sd  # -|a / sd| exactly: IEEE division is symmetric in sign
        w = 0.5 * (hi - lo) / sd
        lower = np.subtract(x, w, out=np.empty(mean.shape))
        x += w
        ndtr(x, out=x)
        x -= ndtr(lower, out=lower)  # ndtr(x + w) - ndtr(x - w)
    np.maximum(mass, 1e-300, out=mass)
    return np.log(mass, out=mass)


# ---------------------------------------------------------------------------
# Gaussian lookahead twist
# ---------------------------------------------------------------------------


def ar1_lookahead_variance(phi: float, nu2: float, lag: int) -> float:
    """Var(K_{t+lag} | K_t) accumulated over ``lag`` AR(1) transitions."""
    if lag < 0:
        raise ValueError(f"lag must be nonnegative, got {lag}")
    if lag == 0:
        return 0.0
    r = phi * phi
    if abs(r - 1.0) < 1e-12:
        return nu2 * lag
    return nu2 * (1.0 - r**lag) / (1.0 - r)


class _Law(NamedTuple):
    """One next-state law N(mean, var) at one effective lag: the constants of
    qh and of the law tilted by h (at lag 0, h = 1: qh = 1 and no tilt)."""

    qh_var: float  # Var(Y_(t+lag)) under the law: s2 + phi**(2 lag) * var (NaN at lag 0)
    qh_norm: float  # log(2 pi) + log(qh_var)
    tilt_coef: float  # tilted mean = tilt_coef * mean + tilt_gain * target / s2
    tilt_gain: float
    tilt_sd: float  # sd of the tilted law
    mass_var: float  # its variance + obs_var: the variance of one simulated observation


class _Lookahead(NamedTuple):
    """The constants of one effective lag."""

    lag: int
    scale: float  # phi**lag
    s2: float  # Var(Y_(t+lag) | K_t)
    h_norm: float  # log(2 pi) + log(s2)
    laws: tuple  # (_Law of one transition out of k, _Law of the initial draw plus one)


@dataclass(frozen=True)
class GaussianLookaheadTwist:
    """Twist by the Gaussian predictive density of an observation ``lag`` ahead.

    h(k) at step t scores the observation lag steps ahead under the AR(1)
    latent chain started at k with Gaussian observation variance ``obs_var``;
    qh then simply scores the same observation one transition further out, so
    the pair is consistent in closed form.  Near the end of the record the
    lag shrinks to the remaining horizon.  At the final step, and wherever
    phi**lag or Var(Y_(t+lag) | K_t) overflows a float, the effective lag is
    0: the twist is constant there, i.e. the step is untwisted.

    Every constant a hook needs depends only on the effective lag, so they
    sit in one ``_Lookahead`` row per lag, built on first use up to the
    longest lag a record reaches (an overflowing lag gets the lag-0 row).  A
    hook looks its row up, then works over the states in place.
    """

    phi: float
    nu2: float
    obs_var: float
    lag: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi * self.phi):
            raise ValueError(f"phi must be finite with a finite square, got {self.phi}")
        if not 0 < self.nu2 < math.inf:
            raise ValueError(f"nu2 must be positive and finite, got {self.nu2}")
        if not 0 < self.obs_var < math.inf:
            raise ValueError(f"obs_var must be positive and finite, got {self.obs_var}")
        if self.lag < 0:
            raise ValueError(f"lag must be nonnegative, got {self.lag}")
        object.__setattr__(self, "_rows", [])

    def _lookahead(self, lag: int) -> _Lookahead:
        """The row of effective lag ``lag``: the lag-0 row where phi**lag or
        Var(Y_(t+lag) | K_t) overflows a float."""
        try:
            scale = self.phi**lag
            s2 = self.obs_var + ar1_lookahead_variance(self.phi, self.nu2, lag)
            finite = math.isfinite(scale**2 + s2)
        except OverflowError:
            finite = False
        if not finite:  # constants past a float: this step is untwisted
            return self._rows[0]
        laws = []
        for var in (self.nu2, (1.0 + self.phi**2) * self.nu2):
            if lag == 0:  # h = 1: qh = 1 and the law is untilted
                qh_var, post_var, gain = math.nan, var, 0.0
            else:
                qh_var = s2 + scale**2 * var
                post_var = 1.0 / (1.0 / var + scale**2 / s2)
                gain = post_var * scale
            laws.append(_Law(qh_var, _LOG_TWO_PI + math.log(qh_var), post_var / var, gain,
                             math.sqrt(post_var), post_var + self.obs_var))
        return _Lookahead(lag, scale, s2, _LOG_TWO_PI + math.log(s2), tuple(laws))

    def _window(self, y_window):
        """(the row of this step's effective lag, its target observation)."""
        lag = min(self.lag, len(y_window) - 1)
        if lag < 0:
            raise ValueError("empty observation window")
        rows = self._rows
        while len(rows) <= lag:
            rows.append(self._lookahead(len(rows)))
        row = rows[lag]
        return row, float(y_window[row.lag])

    def log_h(self, y_window, k) -> np.ndarray:
        row, target = self._window(y_window)
        if row.lag == 0:
            return np.zeros(np.shape(k))
        mean = _scaled(k, row.scale)
        return _checked(_norm_logpdf_into(target, mean, row.s2, row.h_norm, out=mean))

    def log_qh(self, y_window, k) -> np.ndarray:
        row, target = self._window(y_window)
        if row.lag == 0:
            return np.zeros(np.shape(k))
        law = row.laws[k is None]
        mean = np.zeros(()) if k is None else _scaled(k, self.phi)  # the next state's mean
        mean *= row.scale
        return _checked(_norm_logpdf_into(target, mean, law.qh_var, law.qh_norm, out=mean))

    def propose_guided_states(self, k_anc, y_window, stream, count: int) -> np.ndarray:
        """``count`` iid next states out of ``k_anc`` (None: the initial draw
        plus one transition), reweighted by h."""
        row, target = self._window(y_window)
        law = row.laws[k_anc is None]
        mean = 0.0 if k_anc is None else self.phi * float(k_anc)
        if row.lag:
            mean = law.tilt_coef * mean + law.tilt_gain * target / row.s2
        draws = stream.standard_normal(count)
        draws *= law.tilt_sd
        draws += mean
        return draws

    # -- acceptance-augmented hook for the alive twisted filter -------------

    def log_qh_alive(self, y_window, k, kernel) -> np.ndarray:
        """log E[W * h] over the next state out of ``k`` plus one simulation."""
        lo, hi = kernel.interval(float(y_window[0]))
        row, target = self._window(y_window)
        law = row.laws[k is None]
        mean = np.zeros(()) if k is None else _scaled(k, self.phi)  # shared by qh and the tilt
        log_qh = 0.0
        if row.lag:  # log qh is floored only in the sum: log mass <= 0 gives the same bits
            log_qh = _scaled(mean, row.scale)
            _norm_logpdf_into(target, log_qh, law.qh_var, law.qh_norm, out=log_qh)
            mean *= law.tilt_coef
            mean += law.tilt_gain * target / row.s2
        # the acceptance mass: one simulated observation N(K', obs_var) lands in [lo, hi]
        log_mass = _log_interval_mass(mean, law.mass_var, lo, hi)
        return _checked(np.add(log_qh, log_mass, out=mean))  # mean's buffer is free now


def lg_twist(params, lag: int) -> GaussianLookaheadTwist:
    """Exact lookahead twist for the linear-Gaussian model."""
    return GaussianLookaheadTwist(params.phi, params.nu2, params.tau2, lag)


def sv_twist(params, lag: int) -> GaussianLookaheadTwist:
    """Gaussian-surrogate lookahead twist for the volatility model.

    The heavy-tailed observation law has no usable density, so the twist
    scores observations under a Gaussian with variance 2 * gamma**2 — the
    observation variance at tail index 2 with the volatility factor frozen at
    its prior-mean log-volatility of 0.  The alive filter's acceptance masses
    (``log_qh_alive``) assume that surrogate too, not the model's stable
    observation law, so ``alive_twisted_filter`` with this twist does not
    estimate the model's own ABC marginal.  Against a grid-quadrature oracle
    (epsilon 3.5 relative, lag 5) E[Ẑ]/Z measured 0.986 at T = 20, N = 100
    and 0.804 at T = 200, N = 50; plain alive matched within noise.
    """
    return GaussianLookaheadTwist(params.F, params.nu2, 2.0 * params.gamma**2, lag)


# ---------------------------------------------------------------------------
# table twists for the finite-state oracle models
# ---------------------------------------------------------------------------


@dataclass
class DiscreteTableTwist:
    """Twist given by an explicit (step, state) table of log h values.

    qh_alive and the twisted sampler are computed exactly from the model's
    transition matrix, so any positive table is a valid twist; this is the
    workhorse for checking the twisted estimators against the finite-state
    oracle.  The step index is inferred from the length of the remaining
    observation window.
    """

    log_h_table: np.ndarray
    params: DiscreteHmmParams

    def __post_init__(self) -> None:
        table = np.asarray(self.log_h_table, dtype=float)
        if table.ndim != 2 or table.shape[1] != self.params.n_states:
            raise ValueError("log_h_table must be (steps, n_states)")
        if not np.all(np.isfinite(table)):
            raise ValueError("twist table must be finite")
        self.log_h_table = table
        self._h = np.exp(table)

    def _step(self, y_window) -> int:
        steps = len(self.log_h_table)
        t = steps - len(y_window)
        if not 0 <= t < steps:
            raise ValueError("observation window does not match the twist table")
        return t

    def _next_state_law(self, t: int, k) -> np.ndarray:
        """Next-state probabilities: the rows ``transition[k]``, or the initial
        draw plus one transition when ``k`` is None (step 0 only)."""
        if k is None:
            if t != 0:
                raise ValueError("the initial law only applies at the first step")
            return self.params.initial @ self.params.transition
        return self.params.transition[np.asarray(k, dtype=np.int64)]

    def log_h(self, y_window, k) -> np.ndarray:
        return self.log_h_table[self._step(y_window), np.asarray(k, dtype=np.int64)]

    def propose_guided_states(self, k_anc, y_window, stream, count: int) -> np.ndarray:
        """``count`` iid next states out of ``k_anc`` (None: the initial draw
        plus one transition), reweighted by h."""
        t = self._step(y_window)
        return categorical_many(stream, self._next_state_law(t, k_anc) * self._h[t], count)

    # -- acceptance-augmented hook for the alive twisted filter -------------

    def log_qh_alive(self, y_window, k, kernel) -> np.ndarray:
        """log of the next state's h times its exact acceptance probability,
        averaged over the next-state law."""
        t = self._step(y_window)
        accept = discrete_accept_masses(self.params, kernel, y_window[:1])[0]
        values = self._next_state_law(t, k) @ (accept * self._h[t])
        return np.log(np.maximum(values, np.exp(LOG_FLOOR)))


def constant_twist(steps: int, params: DiscreteHmmParams) -> DiscreteTableTwist:
    """The do-nothing twist (h identically 1)."""
    return DiscreteTableTwist(np.zeros((steps, params.n_states)), params)


def random_positive_twist(steps: int, params: DiscreteHmmParams,
                          stream: np.random.Generator, scale: float = 1.0) -> DiscreteTableTwist:
    """An arbitrary positive twist; unbiasedness must hold for any of these."""
    return DiscreteTableTwist(scale * stream.standard_normal((steps, params.n_states)), params)


def acceptance_prob_twist(params: DiscreteHmmParams, kernel, observations,
                          lag: int) -> DiscreteTableTwist:
    """Twist by the probability of accepting the next ``lag`` observations.

    h_t(k) is the exact probability that fresh simulations from state k pass
    ``kernel`` for observations t+1 .. t+lag (truncated at the end of the
    record), by backward induction over ``models.discrete_accept_masses`` —
    the natural guidance target for accept/reject filters.
    """
    if lag < 0:
        raise ValueError(f"lag must be nonnegative, got {lag}")
    masses = discrete_accept_masses(params, kernel, observations)
    steps = len(masses)
    table = np.ones((steps, params.n_states))
    for t in range(steps):
        horizon = min(lag, steps - 1 - t)
        value = np.ones(params.n_states)
        for s in range(t + horizon, t, -1):
            value = params.transition @ (masses[s] * value)
        table[t] = value
    return DiscreteTableTwist(np.log(np.maximum(table, 1e-300)), params)

"""Particle filters built on accept/reject weights.

The central routine is :func:`sample_until_alive`: keep proposing particles
for the current step until exactly ``target`` of them have been accepted,
and record how many proposals that took.  The position of the final
acceptance is the step's stopping time T; by construction the last stored
particle is accepted, and only the first T - 1 particles (carrying target - 1
acceptances) feed resampling and the normalising-constant factor
(target - 1) / (T - 1).  The count of proposals per step is capped so a
too-tight tolerance fails loudly instead of looping forever.

Proposals are drawn in speculative batches for vectorisation.  The first
batch is sized from a hint (the filters pass ``_FIRST_BATCH_MARGIN`` = 1.3
times the previous stopping time); after a short batch the next is sized
from the acceptance rate seen so far, doubling only while nothing has been
accepted.  No batch draws more than ``_SPECULATION`` proposals past what the
step is known to need (``target`` before any acceptance, the rate's estimate
after): stopping times swing widely from step to step, and one batch's fixed
cost is worth only 350-600 proposals on both shipped models, so a larger
batch spends more on proposals simulated past the stopping position and
discarded than the batch it saves.  Sizes depend only on proposals already
drawn and every batch is generated in full before truncating at the stopping
position, so the pool is the prefix of an iid proposal sequence up to the
target-th acceptance whatever the schedule.  The kernel scores each batch
once and the stop is read off its nonzero weights.  The pool is one
:class:`ParticleGeneration` of states and weights (no filter reads the
pseudo-observations), whose ``survivors()`` feed the next step.
Output is bit-for-bit reproducible for a given seed and schedule.  A
different schedule hands each proposal different draws from the stream (a
proposer that reads the stream takes its draws batch by batch), which
changes the trajectory a seed gives but not its law.

Each filter run simulates its pseudo-observations through one
:func:`pseudo_observer`.  A model whose observation noise is iid and free of
the state (the volatility model's stable noise) has that noise drawn
``NOISE_BLOCK`` at a time and served in order across batches and steps, so
one stable transform serves many small batches instead of each batch paying
its fixed cost.  Which noise a proposal gets never depends on noise not yet
served, so the pool is still the prefix of an iid proposal sequence, and the
cap still counts proposals, not noise draws.  The other models observe
through ``observation_sampler``: one normal or uniform draw per batch costs
less than the buffer's bookkeeping.

A standard multinomial bootstrap filter over an explicit observation density
is included as the baseline the accept/reject filters are compared against.
It resamples with :func:`_resample`, which returns the multinomial ancestors
sorted (one sort of the uniforms and one cdf search, no scatter back to draw
order): every reader of a bootstrap pool (resampling by weight, the twisted
variant's qh-weighted guided pick, the factor's sums) is symmetric in
particle order, so the order changes no law.

The twisted variants, :func:`twisted_bootstrap_filter` and
:func:`alive_twisted_filter`, give each step one lookahead-guided slot
through the hooks of a twist (``alivetwist.twist`` describes them).  The
guided particle comes first in its pool; every reader of a pool, the alive
filters' uniform ancestor picks included, is symmetric in particle order, so
where it sits changes no law.  Both pick the guided ancestor with the
bootstrap's pool primitives: one :func:`_pool_weights` pass over the log
scores, whose log total is the step factor's qh sum, then one
:func:`_resample` draw.  The scores' largest entry is finite (twist hooks
return finite values, and a bootstrap pool's log weights passed the same
check), so that pass never raises ParticleDeathError.

For the density-weighted (bootstrap) filter the guidance stops there, and
the step factor is the pool's mean likelihood times a ratio of two pool
averages: the previous pool's weighted mean of qh over the new pool's mean
of h.  With a constant twist both means are 1 and the filter collapses to
its untwisted counterpart; that collapse doubles as a regression check.

The accept/reject (alive) filter twists by more than the lookahead: the slot
that matters for its variance is the binary acceptance itself, so the
effective twist there is the product (current-step acceptance) * h, whose
one-step log mass is the twist's ``log_qh_alive``.
The guided (state, pseudo-observation) pair is drawn from the h-reweighted
transition *conditioned on acceptance* by rejection: the first
``propose_guided_states`` candidate whose simulated observation the kernel
accepts, so the guided particle lands inside the kernel's ball.  Each alive
step reads its stream in this order: the guided anchor, the plain pool (one
``sample_until_alive`` call), then the guided candidates (a second call, on
the proposals the pool left of the cap).  Both calls observe through the
run's one :func:`pseudo_observer`: for a model with the noise hook the
candidates take their noise where the pool's left off in the run's current
block, and a fresh block is read from the stream only where a request runs
past the one in hand, so most steps read no noise for their candidates.

The alive step factor is then [sum of qh-with-acceptance over the previous
pool's accepted particles] / [sum of h over the current pool's accepted
among its first T - 1].  With a constant twist the factor becomes the
previous pool's average one-step acceptance mass — the exact conditional
expectation of the untwisted filter's (N - 1)/(T - 1) factor — which is why
the twisted estimator trades the stopping-time noise for smooth density
ratios.

Every plain alive factor (N - 1) / (T - 1) is at most 1, so the running log
estimate only falls.  A caller that rejects whenever the final log estimate
is at most some floor (the pseudo-marginal chain does) can set that floor
with :func:`rejection_floor`; :func:`alive_filter` then stops as soon as the
rejection is certain, raising :class:`EarlyRejection`.  Outside such a block
no floor is set and the filter runs as if the mechanism did not exist.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

DEFAULT_TRIAL_CAP = 1_000_000

_MAX_BATCH = 1 << 18
_TOP_UP_MARGIN = 1.2
_FIRST_BATCH_MARGIN = 1.3  # a step's first batch over the previous stopping time
# proposals a batch may draw past the step's known need; one batch's fixed
# cost (propose, weights, stop search) is 350-600 proposals' worth on both models
_SPECULATION = 256
# noise draws per block for a model with the noise hook; on the volatility
# chain 1024 beat 256 and 4096
NOISE_BLOCK = 1024
# relative allowance on the floor for rounding in the running log estimate,
# so that an early stop never depends on the last bits of a sum
_FLOOR_ROUNDING = 1e-9

_REJECTION_FLOOR: ContextVar[Optional[float]] = ContextVar("rejection_floor", default=None)


class StoppingTimeCapError(RuntimeError):
    """Raised when a step exhausts its proposal budget before going alive."""

    def __init__(self, step: int, drawn: int, accepted: int, target: int, cap: int):
        self.step = step
        self.drawn = drawn
        self.accepted = accepted
        self.target = target
        self.cap = cap
        super().__init__(
            f"stopping-time cap exceeded at step {step}: "
            f"{accepted}/{target} acceptances after {drawn} of at most {cap} proposals"
        )


class EarlyRejection(RuntimeError):
    """Raised when a plain alive run can no longer end above its rejection floor."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"log estimate certain to end at or below the rejection floor at step {step}")


class ParticleDeathError(RuntimeError):
    """Raised when every bootstrap particle has zero observation weight."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"particle death at step {step}: all weights vanished")


@dataclass(slots=True)
class ParticleGeneration:
    """One accept/reject step's pool, as :func:`sample_until_alive` returns it.

    states and weights hold the step's proposals up to its last acceptance,
    so their length is the stopping time T (``stopping_time`` reads it off
    the pool); weights are the kernel's acceptance mask (1-byte booleans for
    the shipped kernels) with the final entry accepted.  When a twisted
    variant produced this generation, its guided particle is the first entry
    and the two log sums record that step's guidance diagnostics.
    """

    states: np.ndarray
    weights: np.ndarray
    log_qh_sum: Optional[float] = None
    log_wh_sum: Optional[float] = None

    @property
    def stopping_time(self) -> int:
        return len(self.states)

    def survivors(self) -> np.ndarray:
        """The accepted states among the first T - 1 (the T-th is left out),
        in pool order: the particles the next step picks its ancestors from."""
        return self.states[self.weights[:-1].nonzero()[0]]


@dataclass(slots=True)
class BootstrapGeneration:
    """One step's pool from a density-weighted filter.

    After the first step the particles come grouped by ancestor, in
    ancestor order (:func:`_resample` sorts the ancestors); a twisted pool
    puts its guided particle first and groups the rest.  No reader depends
    on that order.
    """

    states: np.ndarray
    log_weights: np.ndarray
    log_qh_sum: Optional[float] = None
    log_wh_sum: Optional[float] = None


@dataclass
class NormConstEstimate:
    """Per-step log factors of a normalising-constant estimate and their sum."""

    log_factors: List[float]
    log_total: float

    @classmethod
    def from_log_factors(cls, log_factors) -> "NormConstEstimate":
        log_factors = [float(f) for f in log_factors]
        total = 0.0  # left to right, as np.cumsum: the builtin sum compensates from 3.12 on
        for f in log_factors:
            total += f
        return cls(log_factors, total)


def _logsumexp1d(values: np.ndarray) -> float:
    """log(sum(exp(values))) for a nonempty 1-d float array whose largest entry
    is finite (twist ``log_h`` values are), without scipy's dispatch cost."""
    shift = float(values.max())
    shifted = np.subtract(values, shift)
    return shift + math.log(float(np.exp(shifted, out=shifted).sum()))


def _pool_weights(log_weights: np.ndarray, step: int):
    """(cumsum(exp(log_weights - max)), log-sum-exp) of one bootstrap pool
    from one exp pass and one cumsum: the next step's resampling cdf for
    :func:`_resample` and this step's factor input, read off the cdf's last
    entry.  Raises ParticleDeathError(step) unless the largest log weight is
    finite: every weight zero, a NaN or a +inf.  Past that check the weights
    are nonnegative with a largest entry of 1, so the cdf needs no other
    validation."""
    shift = float(log_weights.max())
    if not math.isfinite(shift):
        raise ParticleDeathError(step)
    cdf = np.subtract(log_weights, shift)
    np.exp(cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    return cdf, shift + math.log(float(cdf[-1]))


def _resample(stream: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """``size`` iid multinomial indices over the pool cdf that
    :func:`_pool_weights` returns, in nondecreasing order.

    The uniforms are sorted in place, scaled by the total T and searched in
    one ``searchsorted`` pass.  Scaling by a positive total keeps order, so
    the result is ``np.sort(categorical_many(stream, weights, size))`` from
    the same stream: the multinomial multiset without its draw order, for
    callers whose readers ignore particle order.

    No index runs past the end, so none is clamped.  ``random`` returns at
    most 1 - 2^-53, and the pool cdf's total T is at least 1 (its largest
    weight is 1).  The exact product (1 - 2^-53) T = T - T 2^-53 lies more
    than half the float spacing at T below T and less than a whole spacing
    (at a power of two, exactly the spacing below it), so it rounds to the
    float just below T; rounding is monotone, so every scaled uniform is
    below T = cdf[-1] and the search stops at a particle.
    """
    u = stream.random(size)
    u.sort()
    u *= cdf[-1]
    return np.searchsorted(cdf, u, side="right")


def _checked_run(stream, n_particles: int, least: int, observations, dtype=None) -> np.ndarray:
    """A filter run's record as an array; raises ValueError without an
    explicit stream, with fewer than ``least`` particles, or if the record is
    not 1-d, empty or not all finite."""
    if stream is None:
        raise ValueError("an explicit random stream is required")
    if n_particles < least:
        raise ValueError(f"need at least {least} particle{'s' * (least > 1)}, got {n_particles}")
    observations = np.asarray(observations, dtype=dtype)
    if observations.ndim != 1:
        raise ValueError("observations must be a 1-d record")
    if observations.size == 0:
        raise ValueError("need at least one observation")
    if not np.all(np.isfinite(observations)):
        raise ValueError("observations must be finite")
    return observations


@contextmanager
def rejection_floor(log_floor: Optional[float]):
    """Within the block, :func:`alive_filter` raises EarlyRejection as soon as
    its log estimate is certain to end at or below ``log_floor``; None sets
    no floor.  The floor is scoped like ``np.errstate``: it is restored on
    exit and is private to the current thread or task."""
    token = _REJECTION_FLOOR.set(log_floor)
    try:
        yield
    finally:
        _REJECTION_FLOOR.reset(token)


def _floor_cap(log_partial: float, log_floor: float, n_particles: int, cap: int, step: int) -> int:
    """Step ``step``'s proposal cap under a rejection floor; raises
    EarlyRejection if the run is already certain to end at or below it.

    Later factors are at most 1, so the final log estimate is at most
    log_partial + log((N - 1) / (T - 1)), which is at most the floor once
    T >= 1 + (N - 1) exp(log_partial - log_floor).  A cap of the integer part
    of that bound stops every stopping time above it, while one exactly at it
    (a tie) runs on; the floor is first lowered by a rounding allowance, so
    every stop is certain.
    """
    gap = log_partial - log_floor + _FLOOR_ROUNDING * (1.0 + abs(log_floor))
    if gap <= 0.0:
        raise EarlyRejection(step)
    if gap >= math.log(cap):  # the hard cap binds first
        return cap
    return min(cap, math.floor(1.0 + (n_particles - 1) * math.exp(gap)))


def sample_until_alive(propose: Callable[[np.random.Generator, int], dict],
                       kernel, observed, target: int, cap: int,
                       stream: np.random.Generator,
                       batch_hint: Optional[int] = None,
                       step: int = 0) -> ParticleGeneration:
    """Propose until ``target`` particles are accepted; return the pool.

    ``propose(stream, count)`` returns a dict whose 'states' and 'pseudo_obs'
    hold ``count`` proposals each.  ``kernel.weights`` scores the latter once
    per batch; the pool is the :class:`ParticleGeneration` of the states and
    those weights (a boolean mask for the shipped kernels), cut at the
    stopping position T.  The stop is the position
    of the target-th nonzero weight, counted over each batch's nonzero
    positions (one ``.nonzero()`` per batch).  ``batch_hint`` sizes
    the first batch (at least ``target``; without one, max(2 target, 64));
    a top-up is 1.2 times the need the acceptance rate so far predicts.  No
    batch goes more than ``_SPECULATION`` past the known need (``target`` for
    the first), for the reason the module docstring gives.
    Raises StoppingTimeCapError if ``cap`` proposals do not yield ``target``
    acceptances.
    """
    if target < 1:
        raise ValueError(f"acceptance target must be at least 1, got {target}")
    if cap < target:
        raise ValueError(f"cap {cap} cannot be below the acceptance target {target}")

    chunks = []  # (states, weights) of each batch
    drawn = 0
    accepted = 0
    size = min(max(target, batch_hint) if batch_hint else max(2 * target, 64), target + _SPECULATION)
    while True:
        size = min(size, _MAX_BATCH, cap - drawn)
        if size <= 0:
            raise StoppingTimeCapError(step, drawn, accepted, target, cap)
        batch = propose(stream, size)
        weights = kernel.weights(batch["pseudo_obs"], observed)
        chunks.append((batch["states"], weights))
        hits = weights.nonzero()[0]
        if accepted + hits.size >= target:
            stop = drawn + int(hits[target - accepted - 1]) + 1
            states, weights = chunks[0] if len(chunks) == 1 else map(np.concatenate, zip(*chunks))
            return ParticleGeneration(states[:stop], weights[:stop])
        drawn += size
        accepted += hits.size
        # top up by the acceptance rate seen so far, with a 20% margin so one
        # more batch usually suffices; double while there is no rate yet
        if accepted:
            need = (target - accepted) * drawn / accepted
            size = min(math.ceil(_TOP_UP_MARGIN * need), math.ceil(need) + _SPECULATION)
        else:
            size *= 2


def pseudo_observer(model):
    """``observe(states, stream)``: one simulated observation per state, for
    one filter run.

    For a model with the noise hook (``model.observation_noise``) the noise
    is drawn ``NOISE_BLOCK`` at a time and served in order; a request larger
    than what is left takes the rest plus one fresh draw of at least a
    block.  No draw is reused or skipped, and what is left when the run ends
    is dropped with the observer.  For any other model this is
    ``model.observation_sampler``.
    """
    draw, apply = model.observation_noise, model.observe
    if draw is None:
        return model.observation_sampler
    block = np.empty(0)
    used = 0

    def observe(states, stream):
        nonlocal block, used
        end = used + states.size
        if end <= block.size:
            noise = block[used:end]
        else:
            rest = block[used:]
            end -= block.size
            block = draw(stream, max(NOISE_BLOCK, end))
            noise = np.concatenate((rest, block[:end]))
        used = end
        return apply(states, noise)

    return observe


def alive_proposer(model, observe, accepted_states: Optional[np.ndarray] = None):
    """``propose(stream, count)`` for one alive step's plain proposals.

    At the first step (``accepted_states`` None) each proposal is the initial
    draw plus one transition.  Later, each picks one of ``accepted_states``,
    the previous pool's accepted particles among its first T - 1, uniformly
    and moves it one transition on.  Each call returns {'states': the
    proposed states, 'pseudo_obs': ``observe(states, stream)``}, where
    ``observe`` is the run's :func:`pseudo_observer`.

    The pick is floor(n U) for one ``stream.random`` uniform U per proposal
    (n accepted states): under half the cost of ``stream.integers`` and the
    gather at batch sizes near 65.  U lies on numpy's 2^-53 grid, so each
    index has probability within n 2^-53 of 1/n (2e-13 at n = 2000), and
    floor(n U) < n holds for every float U < 1 and integer n < 2^53, so no
    clamp is needed.  Draws come in the order pick, transition, observation.
    """

    def propose(stream, count):
        if accepted_states is None:
            k = model.init_state_sampler(stream, count)
        else:
            k = accepted_states[(stream.random(count) * accepted_states.size).astype(np.intp)]
        states = model.transition_sampler(k, stream)
        return {"states": states, "pseudo_obs": observe(states, stream)}

    return propose


def alive_filter(model, kernel, observations, n_particles: int,
                 cap: int = DEFAULT_TRIAL_CAP,
                 stream: Optional[np.random.Generator] = None):
    """Accept/reject filter that keeps proposing until each step is alive.

    Each step moves states drawn uniformly from the previous step's accepted
    particles among its first T - 1 slots (one scaled uniform per pick, see
    :func:`alive_proposer`) one transition on and simulates an observation
    from each, until n_particles of them are accepted by the kernel.
    Returns (generations, estimate) where the estimate's step factor is
    (n_particles - 1) / (T_step - 1).

    Under a :func:`rejection_floor` (read once on entry), each step's cap is
    lowered to the stopping time beyond which the estimate must end at or
    below the floor; reaching it, or starting a step already there, raises
    EarlyRejection.  Reaching the hard ``cap`` first raises
    StoppingTimeCapError as without a floor.
    """
    observations = _checked_run(stream, n_particles, 2, observations)

    log_floor = _REJECTION_FLOOR.get()
    observe = pseudo_observer(model)
    generations: List[ParticleGeneration] = []
    log_factors: List[float] = []
    log_partial = 0.0
    batch_hint = None
    accepted_states = None  # the previous pool's survivors

    for t, y in enumerate(observations):
        step_cap = cap if log_floor is None else _floor_cap(log_partial, log_floor, n_particles, cap, t)
        try:
            pool = sample_until_alive(
                alive_proposer(model, observe, accepted_states), kernel, y, n_particles,
                step_cap, stream, batch_hint=batch_hint, step=t,
            )
        except StoppingTimeCapError:
            if step_cap < cap:
                raise EarlyRejection(t) from None
            raise
        generations.append(pool)
        log_factors.append(math.log(n_particles - 1) - math.log(pool.stopping_time - 1))
        log_partial += log_factors[-1]
        batch_hint = math.ceil(_FIRST_BATCH_MARGIN * pool.stopping_time)
        accepted_states = pool.survivors()

    return generations, NormConstEstimate.from_log_factors(log_factors)


def bootstrap_filter(model, observations, n_particles: int,
                     stream: Optional[np.random.Generator] = None):
    """Multinomial bootstrap filter over an explicit observation density.

    Step factor is the mean observation likelihood of the current pool.
    Raises ParticleDeathError if every particle's weight underflows to zero.
    """
    observations = _checked_run(stream, n_particles, 1, observations, float)
    if model.log_observation_density is None:
        raise ValueError("bootstrap filtering requires a model with an observation density")

    generations: List[BootstrapGeneration] = []
    log_factors: List[float] = []
    prev: Optional[BootstrapGeneration] = None
    # np.log as the pins were recorded: math.log differs in the last bit at some N (9170)
    log_n = float(np.log(n_particles))

    for t, y in enumerate(observations):
        if prev is None:
            k = model.transition_sampler(model.init_state_sampler(stream, n_particles), stream)
        else:
            ancestors = _resample(stream, cdf, n_particles)
            k = model.transition_sampler(prev.states[ancestors], stream)
        log_weights = np.asarray(model.log_observation_density(y, k), dtype=float)
        cdf, total = _pool_weights(log_weights, t)
        generation = BootstrapGeneration(states=k, log_weights=log_weights)
        generations.append(generation)
        log_factors.append(total - log_n)
        prev = generation

    return generations, NormConstEstimate.from_log_factors(log_factors)


def twisted_bootstrap_filter(model, twist, observations, n_particles: int,
                             stream: Optional[np.random.Generator] = None):
    """Bootstrap filter with one lookahead-guided slot per step.

    Per step, in stream order: the guided ancestor is drawn proportional to
    weight times qh, the guided state from the h-reweighted transition, then
    all other slots exactly as in the bootstrap filter; the guided state is
    the pool's first particle.  The step factor is the pool's mean observation
    likelihood times (previous weighted mean of qh) / (current mean of h).
    The first step has no previous pool: the twist is asked with ancestor
    None, so the guided state and the qh mean come from the initial draw
    plus one transition.
    """
    observations = _checked_run(stream, n_particles, 2, observations, float)
    if model.log_observation_density is None:
        raise ValueError("bootstrap filtering requires a model with an observation density")

    generations: List[BootstrapGeneration] = []
    log_factors: List[float] = []
    prev: Optional[BootstrapGeneration] = None
    prev_total = 0.0
    log_n = math.log(n_particles)

    for t in range(observations.size):
        y = observations[t]
        y_window = observations[t:]
        if prev is None:
            guided = twist.propose_guided_states(None, y_window, stream, 1)
            log_qh_sum = float(twist.log_qh(y_window, None))
            others = model.transition_sampler(
                model.init_state_sampler(stream, n_particles - 1), stream
            )
        else:
            log_scores = twist.log_qh(y_window, prev.states)  # a fresh array: ours to overwrite
            log_scores += prev.log_weights
            scores, log_scores_sum = _pool_weights(log_scores, t)
            guided = twist.propose_guided_states(
                prev.states[_resample(stream, scores, 1)[0]], y_window, stream, 1
            )
            other_ancestors = _resample(stream, cdf, n_particles - 1)
            others = model.transition_sampler(prev.states[other_ancestors], stream)
            # the previous pool's log-weight total is exactly last step's factor input
            log_qh_sum = log_scores_sum - prev_total
        states = np.concatenate((guided, others))
        log_weights = np.asarray(model.log_observation_density(y, states), dtype=float)
        cdf, total = _pool_weights(log_weights, t)
        log_wh_sum = _logsumexp1d(twist.log_h(y_window, states)) - log_n
        prev_total = total
        generation = BootstrapGeneration(
            states=states,
            log_weights=log_weights,
            log_qh_sum=log_qh_sum,
            log_wh_sum=log_wh_sum,
        )
        generations.append(generation)
        log_factors.append(total - log_n + log_qh_sum - log_wh_sum)
        prev = generation

    return generations, NormConstEstimate.from_log_factors(log_factors)


GUIDED_BATCH = 8  # first batch of guided candidates per step


def alive_twisted_filter(model, kernel, twist, observations, n_particles: int,
                         cap: int = DEFAULT_TRIAL_CAP,
                         stream: Optional[np.random.Generator] = None):
    """Accept/reject filter guided by an acceptance-augmented twist.

    The twist acts on the (state, simulated observation) pair: the effective
    guidance is h times the current step's acceptance indicator, so its
    one-step expectation ``qh_alive`` is qh times the probability that a
    fresh simulation lands inside the kernel's acceptance region.

    Per step, in stream order: one guided ancestor is drawn proportional to
    qh_alive among the previous pool's accepted particles (first T - 1
    slots); ordinary proposals continue until n_particles - 1 are accepted,
    through one sample_until_alive call; the guided (state,
    pseudo-observation) pair is the first accepted ``propose_guided_states``
    candidate of a second call, so it comes from the h-reweighted transition
    *conditioned on acceptance* and the guided slot is always alive.  The
    pool is the guided particle followed by the plain proposals, so the
    guided particle sits within the first T - 1 and the plain pool's own
    last acceptance is the one left out.  Plain proposals and guided
    candidates alike are observed through the run's one
    :func:`pseudo_observer`.

    Plain proposals up to the stopping position plus guided candidates up to
    the accepted one never exceed the cap: the guided call gets what the pool
    left.  A step that cannot go alive within it raises StoppingTimeCapError
    with the step's own accounting (target n_particles, the filter's cap).
    A cap below n_particles is a bad argument (ValueError), as in
    alive_filter.

    The step factor is the previous pool's accepted-particle sum of qh_alive
    over the current pool's accepted-particle sum of h (first T - 1 slots
    both); at the first step the twist is asked with ancestor None (the
    initial draw plus one transition), and the numerator is (n_particles - 1)
    times that qh_alive mass.  With a constant twist the factor collapses to
    the accepted pool's mean one-step acceptance mass — same expectation as
    the plain alive ratio (n_particles - 1) / (T - 1), with the stopping
    time integrated out.
    """
    observations = _checked_run(stream, n_particles, 2, observations)
    if cap < n_particles:
        raise ValueError(f"cap {cap} cannot be below the acceptance target {n_particles}")

    observe = pseudo_observer(model)
    generations: List[ParticleGeneration] = []
    log_factors: List[float] = []
    batch_hint = None
    accepted_states = None  # the previous pool's survivors

    for t in range(observations.size):
        y = observations[t]
        y_window = observations[t:]
        if accepted_states is None:
            guided_anchor = None
            log_numerator = math.log(n_particles - 1) + float(
                twist.log_qh_alive(y_window, None, kernel)
            )
        else:
            scores, log_numerator = _pool_weights(
                twist.log_qh_alive(y_window, accepted_states, kernel), t
            )
            guided_anchor = accepted_states[_resample(stream, scores, 1)[0]]

        def propose_guided(stream, count):
            states = twist.propose_guided_states(guided_anchor, y_window, stream, count)
            return {"states": states, "pseudo_obs": observe(states, stream)}

        rest = 0  # plain proposals up to the pool's stopping position, once it has one
        try:
            pool = sample_until_alive(
                alive_proposer(model, observe, accepted_states), kernel, y, n_particles - 1,
                cap, stream, batch_hint=batch_hint, step=t,
            )
            rest = pool.stopping_time
            if rest == cap:  # nothing left to draw the guided pair with
                raise StoppingTimeCapError(t, 0, 0, 1, 0)
            guided = sample_until_alive(
                propose_guided, kernel, y, 1, cap - rest, stream, batch_hint=GUIDED_BATCH, step=t,
            )
        except StoppingTimeCapError as err:
            accepted = n_particles - 1 if rest else err.accepted
            raise StoppingTimeCapError(t, rest + err.drawn, accepted, n_particles, cap) from None
        generation = ParticleGeneration(
            np.concatenate((guided.states[-1:], pool.states)),
            np.concatenate((guided.weights[-1:], pool.weights)),
            log_qh_sum=log_numerator,
        )
        accepted_states = generation.survivors()
        generation.log_wh_sum = _logsumexp1d(twist.log_h(y_window, accepted_states))
        generations.append(generation)
        log_factors.append(log_numerator - generation.log_wh_sum)
        batch_hint = math.ceil(_FIRST_BATCH_MARGIN * generation.stopping_time)

    return generations, NormConstEstimate.from_log_factors(log_factors)

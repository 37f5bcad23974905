"""Guided filters: estimator laws, collapse identities, and bookkeeping."""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import logsumexp

from alivetwist import (
    AbcKernel,
    DiscreteBallKernel,
    LinearGaussianParams,
    ParticleDeathError,
    StoppingTimeCapError,
    StochasticVolatilityParams,
    acceptance_prob_twist,
    alive_filter,
    alive_twisted_filter,
    constant_twist,
    discrete_abc_log_marginal,
    discrete_model,
    kalman_log_marginal,
    lg_model,
    lg_twist,
    random_positive_twist,
    simulate,
    sv_model,
    sv_twist,
    twisted_bootstrap_filter,
)
from alivetwist.models import norm_logpdf
from alivetwist.selftest import toy_discrete_instance
from alivetwist.twist import DiscreteTableTwist, GaussianLookaheadTwist

from helpers import (
    ScriptedStream,
    lg_abc_grid_log_marginal,
    monte_carlo_z,
    stream_for,
    validate_generation,
)

PARAMS = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0)

ALIVE_HOOKS = ("log_h", "log_qh_alive", "propose_guided_states")  # what alive-twisted reads
BOOTSTRAP_HOOKS = ("log_h", "log_qh", "propose_guided_states")  # what twisted-bootstrap reads


class HooksOnly:
    """Forwards exactly the named twist hooks and nothing else."""

    def __init__(self, twist, hooks):
        for name in hooks:
            setattr(self, name, getattr(twist, name))


class TestGridOracle:
    """The grid recursion itself is checked against closed forms first."""

    def test_single_step_closed_form(self):
        kernel = AbcKernel(epsilon=1.0, mode="absolute")
        y = 0.7
        lo, hi = kernel.interval(y)
        total_sd = math.sqrt((1.0 + PARAMS.phi**2) * PARAMS.nu2 + PARAMS.tau2)
        want = math.log(stats.norm.cdf(hi / total_sd) - stats.norm.cdf(lo / total_sd))
        got = lg_abc_grid_log_marginal(PARAMS, [y], kernel)
        assert got == pytest.approx(want, rel=1e-9)

    def test_two_steps_against_quadrature(self):
        kernel = AbcKernel(epsilon=0.8, mode="absolute")
        observations = [0.4, -1.1]
        lo1, hi1 = kernel.interval(observations[0])
        lo2, hi2 = kernel.interval(observations[1])
        v1 = (1.0 + PARAMS.phi**2) * PARAMS.nu2
        tau = math.sqrt(PARAMS.tau2)
        smear_sd = math.sqrt(PARAMS.nu2 + PARAMS.tau2)

        def integrand(x):
            first = stats.norm.cdf((hi1 - x) / tau) - stats.norm.cdf((lo1 - x) / tau)
            second = stats.norm.cdf((hi2 - PARAMS.phi * x) / smear_sd) - stats.norm.cdf(
                (lo2 - PARAMS.phi * x) / smear_sd
            )
            return stats.norm.pdf(x, scale=math.sqrt(v1)) * first * second

        want = math.log(quad(integrand, -15, 15, limit=300)[0])
        got = lg_abc_grid_log_marginal(PARAMS, observations, kernel)
        assert got == pytest.approx(want, rel=1e-8)


class TestTwistedBootstrap:
    def test_validation(self):
        model = lg_model(PARAMS)
        twist = lg_twist(PARAMS, 2)
        with pytest.raises(ValueError):
            twisted_bootstrap_filter(model, twist, [0.0], 10)
        with pytest.raises(ValueError):
            twisted_bootstrap_filter(model, twist, [0.0], 1, stream=stream_for(0))
        with pytest.raises(ValueError):
            twisted_bootstrap_filter(model, twist, [], 10, stream=stream_for(0))
        silent = dataclasses.replace(model, log_observation_density=None)
        with pytest.raises(ValueError):
            twisted_bootstrap_filter(silent, twist, [0.0], 10, stream=stream_for(0))

    def test_hand_traced_single_step(self):
        """Two particles, one step, every random draw scripted by hand.

        The guided state is one draw from the initial draw plus one
        transition, N(0, (1 + phi^2) nu2), untwisted at lag 0, and comes
        first; the other slot takes an initial draw and then a transition."""
        model = lg_model(PARAMS)
        twist = lg_twist(PARAMS, 0)  # constant twist: guided slot is untwisted
        y = 0.5
        a, b, c = 0.3, -0.7, 1.1
        stream = ScriptedStream(normals=[a, b, c])
        generations, estimate = twisted_bootstrap_filter(model, twist, [y], 2, stream=stream)
        assert stream.exhausted()
        sd = math.sqrt(PARAMS.nu2)
        guided = math.sqrt((1.0 + PARAMS.phi**2) * PARAMS.nu2) * a
        other = PARAMS.phi * sd * b + sd * c
        generation = generations[0]
        np.testing.assert_allclose(generation.states, [guided, other], rtol=1e-15)
        want = float(logsumexp(norm_logpdf(y, np.array([guided, other]), PARAMS.tau2))) - math.log(2)
        assert estimate.log_total == pytest.approx(want, abs=1e-12)
        assert generation.log_qh_sum == 0.0
        assert generation.log_wh_sum == 0.0

    def test_constant_twist_diagnostics_vanish_exactly(self):
        model = lg_model(PARAMS)
        _, observations = simulate(model, 12, stream_for(260))
        generations, estimate = twisted_bootstrap_filter(
            model, lg_twist(PARAMS, 0), observations, 30, stream=stream_for(261)
        )
        for generation in generations:
            assert generation.log_qh_sum == 0.0
            assert generation.log_wh_sum == 0.0
        # with the diagnostics zero, each factor is the pool's
        # plain mean likelihood, exactly the untwisted bootstrap's factor form
        for generation, factor in zip(generations, estimate.log_factors):
            want = float(logsumexp(generation.log_weights)) - math.log(30)
            assert factor == pytest.approx(want, abs=1e-12)

    def test_unbiased_against_kalman(self):
        model = lg_model(PARAMS)
        _, observations = simulate(model, 10, stream_for(264))
        truth = kalman_log_marginal(PARAMS, observations)
        estimates = np.array([
            math.exp(
                twisted_bootstrap_filter(
                    model, lg_twist(PARAMS, 5), observations, 100, stream=stream_for(265, rep)
                )[1].log_total
                - truth
            )
            for rep in range(400)
        ])
        assert monte_carlo_z(estimates, 1.0) < 3.0

    def test_particle_death(self):
        model = lg_model(PARAMS)
        dead = dataclasses.replace(
            model, log_observation_density=lambda y, k: np.full(np.shape(k), -np.inf)
        )
        with pytest.raises(ParticleDeathError):
            twisted_bootstrap_filter(dead, lg_twist(PARAMS, 2), [0.0], 10, stream=stream_for(266))


class TestAliveTwisted:
    def test_validation(self):
        model = lg_model(PARAMS)
        twist = lg_twist(PARAMS, 2)
        kernel = AbcKernel(epsilon=1.0, mode="absolute")
        with pytest.raises(ValueError):
            alive_twisted_filter(model, kernel, twist, [0.0], 10)
        with pytest.raises(ValueError):
            alive_twisted_filter(model, kernel, twist, [0.0], 1, stream=stream_for(0))
        with pytest.raises(ValueError):
            alive_twisted_filter(model, kernel, twist, [], 10, stream=stream_for(0))

    def test_hand_traced_single_step(self):
        """Two particles, one step, cap 2, every random draw scripted by hand.

        The stream is read as: the plain pool (a batch of two proposals,
        each an initial draw, a transition and an observation), then the
        guided candidates (one state from the initial draw plus one
        transition, N(0, (1 + phi^2) nu2), untwisted at lag 0, and its
        observation).  The pool stops at its first proposal, leaving one
        proposal of the cap for the guided pair, which comes first."""
        model = lg_model(PARAMS)
        kernel = AbcKernel(epsilon=1e12, mode="absolute")
        normals = [0.3, -0.7, 1.1, 0.4, -0.2, 0.9, -1.3, 0.6]
        stream = ScriptedStream(normals=normals)
        generations, estimate = alive_twisted_filter(
            model, kernel, lg_twist(PARAMS, 0), [0.5], 2, cap=2, stream=stream
        )
        assert stream.exhausted()
        sd = math.sqrt(PARAMS.nu2)
        plain = PARAMS.phi * sd * normals[0] + sd * normals[2]
        guided = math.sqrt((1.0 + PARAMS.phi**2) * PARAMS.nu2) * normals[6]
        generation = generations[0]
        assert generation.stopping_time == 2
        np.testing.assert_allclose(generation.states, [guided, plain], rtol=1e-15)
        np.testing.assert_array_equal(generation.weights, [1, 1])
        assert estimate.log_total == 0.0

    def test_accept_everything_constant_twist_is_exactly_zero(self):
        """Accept-all kernel plus constant twist: numerator and denominator
        are both log(N - 1) every step, so a long run accumulates exactly 0."""
        model = lg_model(PARAMS)
        kernel = AbcKernel(epsilon=1e12, mode="absolute")
        _, observations = simulate(model, 400, stream_for(267))
        generations, estimate = alive_twisted_filter(
            model, kernel, lg_twist(PARAMS, 0), observations, 10, stream=stream_for(268)
        )
        assert estimate.log_total == 0.0
        assert all(g.stopping_time == 10 for g in generations)

    def test_structure_and_diagnostic_identities(self):
        model = lg_model(PARAMS)
        kernel = AbcKernel(epsilon=1.2, mode="absolute")
        twist = lg_twist(PARAMS, 3)
        _, observations = simulate(model, 15, stream_for(269))
        n = 12
        generations, estimate = alive_twisted_filter(
            model, kernel, twist, observations, n, stream=stream_for(270)
        )
        prev_accepted = None
        for t, generation in enumerate(generations):
            validate_generation(generation, n)
            window = observations[t:]
            edge = generation.stopping_time - 1
            accepted = generation.states[generation.weights[:edge].nonzero()[0]]
            # the recorded denominator is the h-sum over this pool's accepted
            want_wh = float(logsumexp(twist.log_h(window, accepted)))
            assert generation.log_wh_sum == pytest.approx(want_wh, abs=1e-10)
            # the recorded numerator is the alive-qh sum over the previous one
            if t == 0:
                want_qh = math.log(n - 1) + float(twist.log_qh_alive(window, None, kernel))
            else:
                want_qh = float(
                    logsumexp(twist.log_qh_alive(window, prev_accepted, kernel))
                )
            assert generation.log_qh_sum == pytest.approx(want_qh, abs=1e-10)
            assert estimate.log_factors[t] == pytest.approx(
                generation.log_qh_sum - generation.log_wh_sum, abs=1e-12
            )
            prev_accepted = accepted
        assert estimate.log_total == pytest.approx(sum(estimate.log_factors), abs=1e-12)

    def test_deterministic_given_seed(self):
        model = lg_model(PARAMS)
        kernel = AbcKernel(epsilon=1.5, mode="absolute")
        _, observations = simulate(model, 8, stream_for(271))
        run = lambda: alive_twisted_filter(
            model, kernel, lg_twist(PARAMS, 3), observations, 10, stream=stream_for(272)
        )
        gen_a, est_a = run()
        gen_b, est_b = run()
        assert est_a.log_total == est_b.log_total
        for a, b in zip(gen_a, gen_b):
            np.testing.assert_array_equal(a.states, b.states)
            np.testing.assert_array_equal(a.weights, b.weights)

    def test_unbiased_against_grid_oracle(self):
        model = lg_model(PARAMS)
        kernel = AbcKernel(epsilon=1.0, mode="absolute")
        _, observations = simulate(model, 5, stream_for(273))
        truth = math.exp(lg_abc_grid_log_marginal(PARAMS, observations, kernel))
        estimates = np.array([
            math.exp(
                alive_twisted_filter(
                    model, kernel, lg_twist(PARAMS, 2), observations, 20, stream=stream_for(274, rep)
                )[1].log_total
            )
            for rep in range(1500)
        ])
        assert monte_carlo_z(estimates, truth) < 3.0

    def test_cap_errors_on_both_paths(self):
        """A plain pool that cannot go alive reports the whole step: all
        n_particles as the target, the filter's cap, and every proposal drawn."""
        model = lg_model(PARAMS)
        twist = lg_twist(PARAMS, 2)
        tight = AbcKernel(epsilon=1e-9, mode="absolute")
        with pytest.raises(StoppingTimeCapError) as info:
            alive_twisted_filter(model, tight, twist, [50.0], 10, cap=300, stream=stream_for(278))
        err = info.value
        assert (err.step, err.drawn, err.accepted, err.target, err.cap) == (0, 300, 0, 10, 300)

    @pytest.mark.parametrize("cap", [8, 9])
    def test_cap_below_target_is_a_bad_argument(self, cap):
        """Both alive filters refuse a cap below n_particles up front, with
        the same message, before drawing anything."""
        model = lg_model(PARAMS)
        kernel = AbcKernel(epsilon=1e12, mode="absolute")
        twist = lg_twist(PARAMS, 0)
        message = f"^cap {cap} cannot be below the acceptance target 10$"
        with pytest.raises(ValueError, match=message):
            alive_filter(model, kernel, [0.0], 10, cap=cap, stream=ScriptedStream())
        with pytest.raises(ValueError, match=message):
            alive_twisted_filter(model, kernel, twist, [0.0], 10, cap=cap, stream=ScriptedStream())

    def test_unreachable_guided_pair_stops_within_the_cap(self):
        """The plain pool goes alive at y = 0, but lag 1 pulls every guided
        candidate toward the far next observation, so none is accepted: the
        step must raise the cap error having charged no more than the cap."""
        model = lg_model(PARAMS)
        kernel = AbcKernel(epsilon=1.0, mode="absolute")
        with pytest.raises(StoppingTimeCapError) as info:
            alive_twisted_filter(
                model, kernel, lg_twist(PARAMS, 1), [0.0, 1e6], 10, cap=5000,
                stream=stream_for(287),
            )
        err = info.value
        assert (err.step, err.accepted, err.target) == (0, 9, 10)  # only the guided slot is missing
        assert err.cap == 5000 and err.drawn <= err.cap

    def test_variance_reduction_on_paired_replicates(self):
        """The guided estimator's log-estimate variance drops below the plain
        alive filter's on the same data at matched particle counts."""
        model = lg_model(PARAMS)
        kernel = AbcKernel(epsilon=1.5, mode="relative")
        _, observations = simulate(model, 20, stream_for(280))
        plain = np.array([
            alive_filter(model, kernel, observations, 50, stream=stream_for(281, 2 * rep))[1].log_total
            for rep in range(80)
        ])
        twisted = np.array([
            alive_twisted_filter(
                model, kernel, lg_twist(PARAMS, 5), observations, 50,
                stream=stream_for(281, 2 * rep + 1),
            )[1].log_total
            for rep in range(80)
        ])
        assert twisted.var(ddof=1) < plain.var(ddof=1)

    def test_stochastic_volatility_smoke(self):
        params = StochasticVolatilityParams(F=0.5, nu2=0.01, alpha=1.95, beta=0.05, gamma=0.5)
        model = sv_model(params)
        _, observations = simulate(model, 25, stream_for(282))
        kernel = AbcKernel(epsilon=3.5, mode="relative")
        generations, estimate = alive_twisted_filter(
            model, kernel, sv_twist(params, 5), observations, 20, stream=stream_for(283)
        )
        assert math.isfinite(estimate.log_total)
        for generation in generations:
            validate_generation(generation, 20)
        _, again = alive_twisted_filter(
            model, kernel, sv_twist(params, 5), observations, 20, stream=stream_for(283)
        )
        assert again.log_total == estimate.log_total


class _StepMarkingKernel:
    """Forwards to a kernel and logs the observation each weights call scores."""

    def __init__(self, kernel, events):
        self._kernel = kernel
        self._events = events

    def weights(self, simulated, observed):
        self._events.append(("step", observed))
        return self._kernel.weights(simulated, observed)

    def __getattr__(self, name):
        return getattr(self._kernel, name)


class TestResamplingRule:
    """At every step t >= 1 of both alive filters, each propagated state and
    each guided anchor is one of the previous pool's accepted particles among
    its first T - 1."""

    @pytest.mark.parametrize("twisted", [False, True])
    def test_sources_are_the_previous_accepted_pool(self, twisted):
        base = lg_model(PARAMS)
        _, observations = simulate(base, 15, stream_for(292))
        events = []  # ("step", y) from the kernel, ("source", states) from the hooks

        def transition(k, stream):
            events.append(("source", np.array(k, dtype=float)))
            return base.transition_sampler(k, stream)

        model = dataclasses.replace(base, transition_sampler=transition)
        kernel = _StepMarkingKernel(AbcKernel(epsilon=1.2, mode="absolute"), events)
        n = 12
        if twisted:
            twist = HooksOnly(lg_twist(PARAMS, 3), ALIVE_HOOKS)
            propose_guided = twist.propose_guided_states

            def guided(k_anc, y_window, stream, count):
                if k_anc is not None:
                    events.append(("source", np.array([k_anc], dtype=float)))
                return propose_guided(k_anc, y_window, stream, count)

            twist.propose_guided_states = guided
            generations, _ = alive_twisted_filter(
                model, kernel, twist, observations, n, stream=stream_for(293)
            )
        else:
            generations, _ = alive_filter(model, kernel, observations, n, stream=stream_for(293))

        # a hook call belongs to the step whose observation the next kernel call scores
        sources = {t: [] for t in range(observations.size)}
        step = None
        for kind, payload in reversed(events):
            if kind == "step":
                (matches,) = np.nonzero(observations == payload)
                assert matches.size == 1
                step = int(matches[0])
            else:
                sources[step].append(payload)
        rejected_seen = False
        for t in range(1, observations.size):
            prev = generations[t - 1]
            first = slice(0, prev.stopping_time - 1)
            accepted = prev.states[first][prev.weights[first] == 1]
            rejected_seen |= bool((prev.weights[first] == 0).any())
            assert sources[t]
            for states in sources[t]:
                assert np.isin(states, accepted).all()
        assert rejected_seen


class TestAliveTwistedDiscrete:
    def test_unbiased_with_constant_and_random_twists(self):
        params, model, observations = toy_discrete_instance(284)
        kernel = DiscreteBallKernel(params.acceptance)
        truth = math.exp(discrete_abc_log_marginal(params, observations))
        steps = observations.size
        for name, twist in (
            ("constant", constant_twist(steps, params)),
            ("random", random_positive_twist(steps, params, stream_for(285), scale=0.7)),
        ):
            estimates = np.array([
                math.exp(
                    alive_twisted_filter(
                        model, kernel, twist, observations, 15, stream=stream_for(286, rep)
                    )[1].log_total
                )
                for rep in range(800)
            ])
            assert monte_carlo_z(estimates, truth) < 3.0, name


class TestOptimalTwist:
    """With h*, the probability that fresh simulations from a state pass every
    later observation, each step's numerator is the previous step's
    denominator over the same accepted particles, so the factors telescope to
    the marginal whatever the stopping times.  Off by one particle in the
    accepted set, the estimate is off by about log 2."""

    @pytest.mark.parametrize("n_particles", [2, 5, 20])
    def test_estimate_is_the_marginal_to_rounding(self, n_particles):
        for seed in range(1, 11):
            params, model, observations = toy_discrete_instance(seed, steps=8)
            twist = acceptance_prob_twist(params, observations, lag=observations.size)
            truth = discrete_abc_log_marginal(params, observations)
            kernel = DiscreteBallKernel(params.acceptance)
            for rep in range(3):
                _, estimate = alive_twisted_filter(model, kernel, twist, observations,
                                                   n_particles, stream=stream_for(295 + seed, rep))
                assert abs(estimate.log_total - truth) <= 1e-12, (seed, rep)


class TestLookaheadTable:
    def test_huge_lag_tabulates_only_the_lags_a_record_reaches(self):
        """The effective lag never exceeds T - 1, so lag 10**6 costs no more
        to build than lag T - 1 and gives bit-identical estimates."""
        start = time.perf_counter()
        huge = lg_twist(PARAMS, 10**6)
        assert time.perf_counter() - start < 0.05
        model = lg_model(PARAMS)
        _, observations = simulate(model, 50, stream_for(292))
        kernel = AbcKernel(epsilon=1.5, mode="relative")
        for run in (
            lambda h, s: alive_twisted_filter(model, kernel, h, observations, 20, stream=s),
            lambda h, s: twisted_bootstrap_filter(model, h, observations, 20, stream=s),
        ):
            assert (run(huge, stream_for(293))[1].log_total
                    == run(lg_twist(PARAMS, 49), stream_for(293))[1].log_total)


class TestTwistProtocol:
    def test_both_twist_classes_expose_exactly_the_four_hooks(self):
        """The Gaussian twist has the four hooks of both filters; the table
        twist, which only the alive filter runs, has that filter's three."""
        for cls, hooks in ((GaussianLookaheadTwist, ALIVE_HOOKS + BOOTSTRAP_HOOKS),
                           (DiscreteTableTwist, ALIVE_HOOKS)):
            public = {
                name for name in dir(cls)
                if not name.startswith("_") and callable(getattr(cls, name))
            }
            assert public == set(hooks), cls.__name__

    def test_filters_need_only_the_four_hooks(self):
        """Each filter gives bit-identical estimates through a twist reduced
        to the hooks that filter reads."""
        model = lg_model(PARAMS)
        _, observations = simulate(model, 12, stream_for(288))
        kernel = AbcKernel(epsilon=1.5, mode="relative")
        twist = lg_twist(PARAMS, 3)
        for run, hooks in (
            (lambda h, s: alive_twisted_filter(model, kernel, h, observations, 20, stream=s),
             ALIVE_HOOKS),
            (lambda h, s: twisted_bootstrap_filter(model, h, observations, 20, stream=s),
             BOOTSTRAP_HOOKS),
        ):
            assert (run(HooksOnly(twist, hooks), stream_for(289))[1].log_total
                    == run(twist, stream_for(289))[1].log_total)
        params, discrete, symbols = toy_discrete_instance(284)
        table = random_positive_twist(symbols.size, params, stream_for(290), scale=0.7)
        ball = DiscreteBallKernel(params.acceptance)
        wrapped = alive_twisted_filter(
            discrete, ball, HooksOnly(table, ALIVE_HOOKS), symbols, 15, stream=stream_for(291)
        )
        plain = alive_twisted_filter(discrete, ball, table, symbols, 15, stream=stream_for(291))
        assert wrapped[1].log_total == plain[1].log_total

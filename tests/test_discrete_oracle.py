"""Finite-state acceptance-smeared marginal against brute-force enumeration."""

import itertools

import numpy as np
import pytest

from alivetwist import (
    DiscreteBallKernel,
    DiscreteHmmParams,
    acceptance_prob_twist,
    alive_twisted_filter,
    discrete_abc_log_marginal,
)
from alivetwist.models import discrete_accept_masses
from alivetwist.selftest import toy_discrete_instance

from helpers import stream_for

IDENTITY = DiscreteBallKernel(np.eye(2, dtype=bool))


def enumerated_log_marginal(params: DiscreteHmmParams, kernel: DiscreteBallKernel,
                            observations) -> float:
    """Oracle: sum over every latent path with itertools, no recursion.

    The filters target the chain one transition past the initial draw, so the
    first path state is distributed as initial @ transition.  Each step
    multiplies in the probability that a fresh symbol simulated at that state
    falls in the kernel's acceptance set of the recorded observation.
    """
    observations = [int(y) for y in observations]
    acceptance = kernel.acceptance.astype(float)
    accept_mass = params.emission @ acceptance.T  # [state, observed]
    first = params.initial @ params.transition
    total = 0.0
    for path in itertools.product(range(params.n_states), repeat=len(observations)):
        prob = first[path[0]] * accept_mass[path[0], observations[0]]
        for prev, cur, y in zip(path, path[1:], observations[1:]):
            prob *= params.transition[prev, cur] * accept_mass[cur, y]
        total += prob
    return float(np.log(total)) if total > 0 else float("-inf")


def test_matches_enumeration_on_fixed_instance():
    params = DiscreteHmmParams(
        initial=[0.5, 0.3, 0.2],
        transition=[[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]],
        emission=[[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]],
    )
    kernel = DiscreteBallKernel(np.array([[1, 1, 0], [0, 1, 0], [0, 1, 1]], dtype=bool))
    observations = [0, 2, 1, 1, 0]
    ours = discrete_abc_log_marginal(params, kernel, observations)
    assert ours == pytest.approx(enumerated_log_marginal(params, kernel, observations), rel=1e-12)


@pytest.mark.parametrize("master_seed", [401, 402, 403])
def test_matches_enumeration_on_random_instances(master_seed):
    params, kernel, _, observations = toy_discrete_instance(master_seed)
    ours = discrete_abc_log_marginal(params, kernel, observations)
    oracle = enumerated_log_marginal(params, kernel, observations)
    assert np.isfinite(ours)
    assert ours == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("master_seed", [401, 402, 403])
def test_accept_masses_match_a_sum_over_symbols(master_seed):
    """Row t, column s is the sum over symbols u of emission[s, u] times
    the kernel's verdict on u for observation t."""
    params, kernel, _, observations = toy_discrete_instance(master_seed)
    masses = discrete_accept_masses(params, kernel, observations)
    assert masses.shape == (observations.size, params.n_states)
    for t, y in enumerate(observations):
        for s in range(params.n_states):
            want = sum(params.emission[s, u] for u in range(3) if kernel.acceptance[y, u])
            assert masses[t, s] == pytest.approx(want, rel=1e-12)
    assert discrete_accept_masses(params, kernel, []).shape == (0, params.n_states)


@pytest.mark.parametrize("master_seed", [402, 403, 904])  # 401 draws the identity table
def test_every_reader_uses_the_kernel_it_is_given(master_seed):
    """Under an identity kernel, not the instance's own table, the oracle is
    that table's enumerated marginal, and the optimal twist built for it
    still telescopes to it."""
    params, own, model, observations = toy_discrete_instance(master_seed, steps=6)
    kernel = DiscreteBallKernel(np.eye(3, dtype=bool))
    assert not np.array_equal(own.acceptance, kernel.acceptance)
    truth = discrete_abc_log_marginal(params, kernel, observations)
    assert truth == pytest.approx(enumerated_log_marginal(params, kernel, observations), rel=1e-12)
    assert truth != pytest.approx(discrete_abc_log_marginal(params, own, observations), rel=1e-6)
    twist = acceptance_prob_twist(params, kernel, observations, lag=observations.size)
    for n_particles in (2, 5, 20):
        _, estimate = alive_twisted_filter(model, kernel, twist, observations, n_particles,
                                           stream=stream_for(master_seed, n_particles))
        assert abs(estimate.log_total - truth) <= 1e-12


def test_exact_matching_reduces_to_plain_hmm_likelihood():
    """With identity acceptance the smeared marginal is the ordinary HMM
    forward likelihood, checkable by enumeration over emissions too."""
    params = DiscreteHmmParams(
        initial=[0.4, 0.6],
        transition=[[0.7, 0.3], [0.4, 0.6]],
        emission=[[0.9, 0.1], [0.2, 0.8]],
    )
    observations = [0, 1, 1, 0]
    first = np.asarray(params.initial) @ params.transition
    total = 0.0
    for path in itertools.product(range(2), repeat=4):
        prob = first[path[0]] * params.emission[path[0], observations[0]]
        for prev, cur, y in zip(path, path[1:], observations[1:]):
            prob *= params.transition[prev, cur] * params.emission[cur, y]
        total += prob
    assert discrete_abc_log_marginal(params, IDENTITY, observations) == pytest.approx(
        float(np.log(total)), rel=1e-12
    )


def test_unreachable_observation_gives_minus_infinity():
    params = DiscreteHmmParams(
        initial=[0.5, 0.5],
        transition=[[0.5, 0.5], [0.5, 0.5]],
        emission=[[1.0, 0.0], [1.0, 0.0]],  # symbol 1 is never emitted
    )
    assert discrete_abc_log_marginal(params, IDENTITY, [0, 1, 0]) == float("-inf")
    assert np.isfinite(discrete_abc_log_marginal(params, IDENTITY, [0, 0, 0]))

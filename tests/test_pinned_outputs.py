"""Filter and chain outputs at fixed seeds, pinned to exact values.

A change that is meant to leave every filter's draws untouched (an engine
tidy, a deleted diagnostic) must keep these log estimates to the last bit;
a change that moves them changes what a seed produces and must say so.
The chain pins also move whenever the chain consumes its stream
differently, even if its law is unchanged.

Every pin was re-recorded when streams moved from numpy's Philox to SFC64
(keyed by ``SeedSequence(master_seed, spawn_key=(stream_id,))``), which
changed what each seed gives but not the law.  Two-sample KS tests on log Ẑ,
old generator against new on independent streams and one shared record
(T 50, N 200, epsilon 1.5 relative, floor 0.1, lag 5, 1000 runs a side),
gave D 0.028, p 0.83 (alive), D 0.046, p 0.24 (alive-twisted), D 0.041,
p 0.37 (bootstrap) and D 0.021, p 0.98 (twisted-bootstrap); and D 0.030,
p 0.35 for alive-twisted on one finite-state instance (acceptance-probability
twist, lag 2, N 15), 2000 runs a side.

The two volatility pins were re-recorded when the alive filters began to draw
the volatility model's stable noise in blocks per run
(``smc.pseudo_observer``), which hands each proposal different draws but
keeps the law.  Two-sample KS tests on log Ẑ, before against after on
independent streams, on ``synthetic_sv_record(1, 200)`` at F 0.5, nu2 0.01,
gamma 0.5, alpha 1.95, beta 0.05, N 50, epsilon 3.5 relative, 1000 runs a
side, gave D 0.039, p 0.43 (alive) and D 0.035, p 0.57 (alive-twisted, lag 5).
Every linear-Gaussian and finite-state pin, and both simulated records, stayed
bit-identical.

The four bootstrap and twisted-bootstrap pins were re-recorded when those
filters began to resample through ``smc._resample``, which returns the
multinomial ancestors sorted instead of in draw order (and reads the pool's
log-sum off its cumulative weights).  The ancestor multiset keeps its law;
only which particle takes which transition draw changes.  Two-sample KS
tests on log Ẑ, before against after on independent streams and one shared
record (``simulate(lg_model, 50, SeedSpec(77, 0))``, N 200, lag 5, 2000 runs a
side), gave D 0.024, p 0.61 (bootstrap) and D 0.028, p 0.44
(twisted-bootstrap).  Every alive, alive-twisted, volatility and finite-state
pin, and both simulated records, stayed bit-identical.

The seven alive and alive-twisted pins (linear-Gaussian at seeds 901 and 902,
the volatility and finite-state alive-twisted pins, the short volatility
chain) were re-recorded when ``smc.alive_proposer`` began to pick each plain
proposal's ancestor as floor(n U) from one ``stream.random`` uniform instead
of ``stream.integers``, which hands each proposal a different ancestor but
keeps the uniform law.  Two-sample KS tests on log Ẑ, before against after on
independent streams, gave D 0.019, p 0.84 (alive) and D 0.031, p 0.29
(alive-twisted) on ``simulate(lg_model, 50, SeedSpec(77, 0))`` (N 200,
epsilon 1.5 relative, floor 0.1, lag 5, 2000 runs a side); D 0.025, p 0.91
(alive) and D 0.035, p 0.57 (alive-twisted, lag 5) on
``synthetic_sv_record(1, 200)`` at the parameters above (N 50, epsilon 3.5
relative, 1000 runs a side); and D 0.020, p 0.82 for alive-twisted on
``toy_discrete_instance(904, steps=8)`` (acceptance-probability twist, lag 2,
N 15, 2000 runs a side).  The bootstrap and twisted-bootstrap pins and both
simulated records stayed bit-identical.
"""

import hashlib

import numpy as np
import pytest

from alivetwist import (
    DEFAULT_TRIAL_CAP,
    AbcKernel,
    DiscreteBallKernel,
    LinearGaussianParams,
    StochasticVolatilityParams,
    acceptance_prob_twist,
    alive_twisted_filter,
    lg_model,
    lg_twist,
    simulate,
    sv_model,
    sv_twist,
)
from alivetwist.configs import FILTERS, PmmhConfig
from alivetwist.experiments import run_sv_pmmh
from alivetwist.selftest import synthetic_sv_record, toy_discrete_instance

from helpers import stream_for

LG_PARAMS = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0)
SV_PARAMS = StochasticVolatilityParams(F=0.5, nu2=0.01, alpha=1.95, beta=0.05, gamma=0.5)


def _sha256(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def test_volatility_record():
    """The record the volatility pins and the sv-pmmh benchmark run on."""
    assert (_sha256(synthetic_sv_record(903, 30))
            == "f0ee8c3ecd0ec2ea0c6e3e7756019e553b72eabcc5064b788f2c014e86acf331")


def test_linear_gaussian_record():
    latents, observations = simulate(lg_model(LG_PARAMS), 20, stream_for(901))
    assert _sha256(latents) == "9cf75834f5dfa251a61ce8db2ef5bbddb3faf71fe4942006d724b614f8782e08"
    assert (_sha256(observations)
            == "9fee577af1e789428740ddc86d6af13365af7d217cf51fc1f38e71d7e4777c11")


def _lg_log_total(algo: str, seed: int) -> float:
    model = lg_model(LG_PARAMS)
    _, observations = simulate(model, 20, stream_for(seed))
    _, estimate = FILTERS[algo].run(
        model, AbcKernel(epsilon=1.2, mode="absolute"), lg_twist(LG_PARAMS, 3), observations,
        30, DEFAULT_TRIAL_CAP, stream_for(seed, 1),
    )
    return estimate.log_total


LG_PINNED = {
    ("alive", 901): -22.992807447366097,
    ("alive", 902): -20.183315794187376,
    ("bootstrap", 901): -38.28312005807703,
    ("bootstrap", 902): -38.66914012578006,
    ("twisted-bootstrap", 901): -39.83441910411111,
    ("twisted-bootstrap", 902): -39.426253152406645,
    ("alive-twisted", 901): -21.899612795432652,
    ("alive-twisted", 902): -20.285962729117085,
}


@pytest.mark.parametrize("algo, seed", sorted(LG_PINNED))
def test_linear_gaussian_log_total(algo, seed):
    assert _lg_log_total(algo, seed) == pytest.approx(LG_PINNED[algo, seed], abs=1e-12)


def test_alive_twisted_on_a_volatility_record():
    observations = synthetic_sv_record(903, 30)
    _, estimate = alive_twisted_filter(
        sv_model(SV_PARAMS), AbcKernel(epsilon=3.5, mode="relative"), sv_twist(SV_PARAMS, 5),
        observations, 20, stream=stream_for(903, 1),
    )
    assert estimate.log_total == pytest.approx(-7.590979610976891, abs=1e-12)


def test_alive_twisted_on_discrete_data():
    params, model, observations = toy_discrete_instance(904, steps=8)
    _, estimate = alive_twisted_filter(
        model, DiscreteBallKernel(params.acceptance), acceptance_prob_twist(params, observations, 2),
        observations, 15, stream=stream_for(904, 1),
    )
    assert estimate.log_total == pytest.approx(-0.9714568701355968, abs=1e-12)


def test_short_volatility_chain():
    config = PmmhConfig(
        iterations=6, n_particles=20, epsilon=3.5, lag=5, cap=1_000_000, alpha=1.95,
        beta=0.05, delta=0.0, burn_in_fraction=0.0, acf_max_lag=1, mode="relative",
    )
    record = run_sv_pmmh(synthetic_sv_record(905, 30), config, "alive-twisted", 905)
    np.testing.assert_array_equal(record.accepted, [1, 0, 1, 0, 1, 0, 0])
    np.testing.assert_allclose(
        record.log_zhats,
        [-17.893675426828867, -17.893675426828867, -7.3004328817926005, -7.3004328817926005,
         -0.652572028514403, -0.652572028514403, -0.652572028514403],
        rtol=0, atol=1e-12,
    )
    np.testing.assert_allclose(
        record.theta_field("F"),
        [-0.006859454661525069, -0.006859454661525069, 0.15131776194256083,
         0.15131776194256083, 0.4423891697744212, 0.4423891697744212, 0.4423891697744212],
        rtol=0, atol=1e-12,
    )

"""Alive and twisted particle filters for models with intractable observation densities.

The alive filters keep proposing particles until a fixed number pass an
accept/reject comparison with each observation, yielding unbiased
normalising-constant estimates with a random per-step cost; the twisted
variants add one lookahead-guided particle per step to cut estimator
variance.  A generic particle-marginal Metropolis-Hastings layer turns
either filter into a posterior sampler.
"""

from .kernels import AbcKernel, DiscreteBallKernel
from .models import (
    DiscreteHmmParams,
    HmmModel,
    LinearGaussianParams,
    StochasticVolatilityParams,
    discrete_abc_log_marginal,
    discrete_model,
    kalman_log_marginal,
    lg_model,
    simulate,
    stable_sample,
    sv_model,
)
from .pmmh import (
    ChainRecord,
    PmmhState,
    SvPriorSpec,
    SvProposalSpec,
    SvTheta,
    acf,
    pmmh_step,
    run_chain,
    sv_log_prior,
    sv_propose,
    sv_sample_prior,
)
from .rng import SeedSpec, derive_stream
from .smc import (
    DEFAULT_TRIAL_CAP,
    BootstrapGeneration,
    EarlyRejection,
    NormConstEstimate,
    ParticleDeathError,
    ParticleGeneration,
    StoppingTimeCapError,
    alive_filter,
    alive_twisted_filter,
    bootstrap_filter,
    rejection_floor,
    sample_until_alive,
    twisted_bootstrap_filter,
)
from .twist import (
    DiscreteTableTwist,
    GaussianLookaheadTwist,
    acceptance_prob_twist,
    constant_twist,
    lg_twist,
    random_positive_twist,
    sv_twist,
)

__version__ = "0.1.0"

__all__ = [
    "AbcKernel",
    "BootstrapGeneration",
    "ChainRecord",
    "DEFAULT_TRIAL_CAP",
    "DiscreteBallKernel",
    "DiscreteHmmParams",
    "DiscreteTableTwist",
    "EarlyRejection",
    "GaussianLookaheadTwist",
    "HmmModel",
    "LinearGaussianParams",
    "NormConstEstimate",
    "ParticleDeathError",
    "ParticleGeneration",
    "PmmhState",
    "SeedSpec",
    "StochasticVolatilityParams",
    "StoppingTimeCapError",
    "SvPriorSpec",
    "SvProposalSpec",
    "SvTheta",
    "acceptance_prob_twist",
    "acf",
    "alive_filter",
    "alive_twisted_filter",
    "bootstrap_filter",
    "constant_twist",
    "derive_stream",
    "discrete_abc_log_marginal",
    "discrete_model",
    "kalman_log_marginal",
    "lg_model",
    "lg_twist",
    "pmmh_step",
    "random_positive_twist",
    "rejection_floor",
    "run_chain",
    "sample_until_alive",
    "simulate",
    "stable_sample",
    "sv_log_prior",
    "sv_model",
    "sv_propose",
    "sv_sample_prior",
    "sv_twist",
    "twisted_bootstrap_filter",
]

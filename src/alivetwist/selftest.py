"""End-to-end statistical health checks, runnable from the command line.

Each check exercises a full code path against an independent reference — a
known sampling law, an exact finite-state recursion, a closed-form Gaussian
marginal — at a configurable replication scale.  The ``quick`` level keeps
the whole suite under a minute; the ``full`` level runs the same checks at
the replication counts used by the acceptance test suite.

Checks are statistical: each uses fixed seeds, so outcomes are reproducible,
and tolerances are set at three standard errors (or explicit slack) so a
healthy build passes deterministically.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional

import numpy as np

from .configs import FILTERS, GridConfig, PmmhConfig
from .experiments import parallel_map, run_sv_pmmh, variance_grid
from .kernels import AbcKernel, DiscreteBallKernel
from .models import (
    DiscreteHmmParams,
    LinearGaussianParams,
    StochasticVolatilityParams,
    discrete_abc_log_marginal,
    discrete_model,
    kalman_log_marginal,
    lg_model,
    simulate,
    sv_model,
)
from .pmmh import acf, run_chain
from .rng import SeedSpec, categorical_many, derive_stream
from .smc import alive_filter, alive_twisted_filter, sample_until_alive
from .twist import acceptance_prob_twist, constant_twist, lg_twist, random_positive_twist


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _replicate_means(name: str, cases) -> CheckResult:
    """Each case (template, draw, stream, reps, target) passes when the mean of
    ``reps`` values ``draw(stream)`` lies within three standard errors of
    ``target``; values with zero spread pass only if their mean is the target
    up to rounding (relative 1e-12: an exact oracle such as the finite-state
    recursion sums rounded products, so it can sit a few ulps off an
    estimator that is exactly 1).  ``template`` formats the case's detail
    from ``mean`` and ``target``."""
    passed, details = True, []
    for template, draw, stream, reps, target in cases:
        values = np.array([draw(stream) for _ in range(reps)])
        mean = float(values.mean())
        se = float(values.std(ddof=1) / np.sqrt(reps))
        if se > 0:
            z = abs(mean - target) / se
        else:
            z = 0.0 if math.isclose(mean, target, rel_tol=1e-12) else np.inf
        passed = passed and z <= 3.0
        details.append(template.format(mean=mean, target=target) + f" (z = {z:.2f})")
    return CheckResult(name, passed, "; ".join(details))


def _estimate(algo, model, kernel, twist, observations, n_particles, stream, log_target=0.0):
    """One ``algo`` run's normalising-constant estimate over exp(log_target)."""
    _, estimate = FILTERS[algo].run(
        model, kernel, twist, observations, n_particles, 100_000, stream
    )
    return np.exp(estimate.log_total - log_target)


def check_stopping_time_mean(master_seed: int, reps: int) -> CheckResult:
    """The per-step factor (N-1)/(T-1) is unbiased for the acceptance rate."""
    n_particles = 10

    def factor(rate, stream):
        # the ball of radius rate/2 around rate/2 accepts a uniform w.p. rate
        pool = sample_until_alive(
            lambda stream, count: dict.fromkeys(("states", "pseudo_obs"), stream.random(count)),
            AbcKernel(rate / 2, "absolute"), rate / 2, n_particles, 10_000_000, stream,
            batch_hint=int(np.ceil(2.6 * n_particles / rate)),
        )
        return (n_particles - 1) / (pool.stopping_time - 1)

    return _replicate_means("stopping-time factor unbiased", [
        ("rate {target}: mean {mean:.5f}", partial(factor, rate),
         derive_stream(SeedSpec(master_seed, which)), reps, rate)
        for which, rate in enumerate((0.1, 0.3, 0.7))
    ])


def toy_discrete_instance(master_seed: int, steps: int = 5,
                          acceptance: Optional[np.ndarray] = None):
    """A seeded random three-state, three-symbol instance, its kernel and one
    simulated record: (params, kernel, model, observations).  The kernel's
    table is ``acceptance``, or a random one that accepts each symbol itself."""
    stream = derive_stream(SeedSpec(master_seed, 0))
    initial = stream.dirichlet(np.ones(3))
    transition = stream.dirichlet(np.ones(3), size=3)
    emission = stream.dirichlet(np.ones(3), size=3)
    if acceptance is None:
        acceptance = np.eye(3, dtype=bool) | (stream.random((3, 3)) < 0.4)
    params = DiscreteHmmParams(initial, transition, emission)
    model = discrete_model(params)
    _, observations = simulate(model, steps, derive_stream(SeedSpec(master_seed, 1)))
    return params, DiscreteBallKernel(acceptance), model, observations.astype(np.int64)


def check_discrete_unbiasedness(master_seed: int, reps: int) -> CheckResult:
    """Both alive filters hit the exact finite-state acceptance marginal."""
    params, kernel, model, observations = toy_discrete_instance(master_seed)
    target = float(np.exp(discrete_abc_log_marginal(params, kernel, observations)))
    steps = observations.size
    twists = {
        "constant": constant_twist(steps, params),
        "random-positive": random_positive_twist(
            steps, params, derive_stream(SeedSpec(master_seed, 2))
        ),
        "acceptance-prob": acceptance_prob_twist(params, kernel, observations, lag=2),
    }
    cases = [("alive: mean {mean:.5f} vs {target:.5f}",
              partial(_estimate, "alive", model, kernel, None, observations, 20),
              derive_stream(SeedSpec(master_seed, 3)), reps, target)]
    for position, (label, twist) in enumerate(twists.items()):
        cases.append((f"twisted[{label}]: mean {{mean:.5f}}",
                      partial(_estimate, "alive-twisted", model, kernel, twist, observations, 20),
                      derive_stream(SeedSpec(master_seed, 4 + position)), reps, target))
    return _replicate_means("finite-state marginal unbiased", cases)


def check_optimal_twist_exact(master_seed: int, instances: int) -> CheckResult:
    """With the optimal twist the twisted alive estimate is the exact marginal.

    ``acceptance_prob_twist`` over the whole record is h*, under which the
    step factors telescope to the finite-state marginal whatever the stopping
    times, so every run at N = 2, 5 and 20 must match it to 1e-12 in log.
    """
    worst = 0.0
    for seed in range(master_seed, master_seed + instances):
        params, kernel, model, observations = toy_discrete_instance(seed, steps=8)
        twist = acceptance_prob_twist(params, kernel, observations, lag=observations.size)
        truth = discrete_abc_log_marginal(params, kernel, observations)
        for n_particles in (2, 5, 20):
            _, estimate = alive_twisted_filter(
                model, kernel, twist, observations, n_particles,
                stream=derive_stream(SeedSpec(seed, 20 + n_particles)),
            )
            worst = max(worst, abs(estimate.log_total - truth))
    return CheckResult("optimal twist is exact", worst <= 1e-12,
                       f"worst |log Zhat - log Z| {worst:.1e} over {instances} instances")


def check_lg_unbiasedness(master_seed: int, bootstrap_particles: int, bootstrap_reps: int,
                          twisted_particles: int, twisted_reps: int) -> CheckResult:
    """Both density filters hit the exact Gaussian marginal likelihood."""
    params = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0)
    model = lg_model(params)
    _, observations = simulate(model, 20, derive_stream(SeedSpec(master_seed, 0)))
    log_target = kalman_log_marginal(params, observations)
    return _replicate_means("Gaussian marginal unbiased", [
        ("bootstrap: mean ratio {mean:.4f}",
         partial(_estimate, "bootstrap", model, None, None, observations, bootstrap_particles,
                 log_target=log_target),
         derive_stream(SeedSpec(master_seed, 1)), bootstrap_reps, 1.0),
        ("twisted bootstrap: mean ratio {mean:.4f}",
         partial(_estimate, "twisted-bootstrap", model, None, lg_twist(params, 5), observations,
                 twisted_particles, log_target=log_target),
         derive_stream(SeedSpec(master_seed, 2)), twisted_reps, 1.0),
    ])


def check_variance_reduction(master_seed: int, steps: int, n_particles: int,
                             replicates: int, repetitions: int, min_wins: int,
                             cap: int = 1_000_000, workers: int = 1) -> CheckResult:
    """The twisted alive filter has lower estimator variance than the plain one."""
    config = GridConfig(
        phi=0.9, nu2_values=[1.0], tau2_values=[1.0], replicates=replicates,
        steps=steps, n_particles=n_particles, epsilon=1.5, lag=5,
        cap=cap, mode="relative",
    )
    wins = 0
    diffs = []
    for repetition in range(repetitions):
        rows = variance_grid(config, master_seed + repetition, workers=workers)
        row = rows[0]
        if row["status"] != "ok":
            diffs.append(row["status"])
            continue
        diffs.append(f"{row['log_var_diff']:.2f}")
        if row["log_var_diff"] > 0:
            wins += 1
    passed = wins >= min_wins
    return CheckResult(
        "twisting reduces estimator variance",
        passed,
        f"{wins}/{repetitions} repetitions improved (need {min_wins}); log-variance gains: "
        + ", ".join(diffs),
    )


# The grid check's prior balances the two exact marginals to this posterior,
# far enough from 0, 1 and 1/2 that a chain stuck in either state, or one
# that accepts every flip, misses it by at least 0.25 in total variation.
_GRID_POSTERIOR = np.array([0.25, 0.75])


def check_grid_posterior(master_seed: int, iterations: int, tolerance: float) -> CheckResult:
    """The pseudo-marginal chain matches an exactly computable posterior.

    The parameter space is two finite-state models sharing one acceptance
    table; the proposal deterministically flips between them (symmetric), so
    the exact posterior follows from the finite-state recursion and the chain
    occupancy must reproduce it.  The prior is chosen from the exact
    marginals so that the posterior is ``_GRID_POSTERIOR``.
    """
    params_a, kernel, _, observations = toy_discrete_instance(master_seed, steps=4)
    params_b, _, _, _ = toy_discrete_instance(master_seed + 1, steps=4,
                                              acceptance=kernel.acceptance)
    grid = [params_a, params_b]
    log_marginals = np.array([discrete_abc_log_marginal(p, kernel, observations) for p in grid])
    prior = _GRID_POSTERIOR * np.exp(log_marginals.min() - log_marginals)
    prior /= prior.sum()
    weights = prior * np.exp(log_marginals - log_marginals.max())
    exact_posterior = weights / weights.sum()

    def run_filter(index, stream):
        return alive_filter(discrete_model(grid[index]), kernel, observations, 10, 100_000, stream)

    record = run_chain(
        run_filter,
        lambda index: float(np.log(prior[index])),
        lambda index, stream: (1 - index, 0.0),
        lambda stream: int(categorical_many(stream, prior, 1)[0]),
        iterations,
        derive_stream(SeedSpec(master_seed, 10)),
    )
    burn_in = iterations // 10
    visited = np.array([int(theta) for theta in record.thetas[burn_in:]])
    occupancy = np.array([(visited == 0).mean(), (visited == 1).mean()])
    tv = 0.5 * float(np.abs(occupancy - exact_posterior).sum())
    return CheckResult(
        "grid posterior occupancy",
        tv <= tolerance,
        f"TV {tv:.4f} vs tolerance {tolerance} "
        f"(occupancy {occupancy.round(4).tolist()}, exact {exact_posterior.round(4).tolist()})",
    )


def _sv_chain_task(args):
    """One posterior chain; top-level so process pools can pickle it."""
    observations, config, algo, master_seed, stream_id = args
    record = run_sv_pmmh(observations, config, algo, master_seed, stream_id)
    burn_in = config.burn_in
    f_series = record.theta_field("F")[burn_in:]
    return record.acceptance_rate, record.cap_exceeded, record.early_rejected, f_series


def synthetic_sv_record(master_seed: int, steps: int) -> np.ndarray:
    """A synthetic volatility record with parameters inside the prior's bulk."""
    true_params = StochasticVolatilityParams(
        F=0.5, nu2=0.01, alpha=1.95, beta=0.05, gamma=0.5, delta=0.0
    )
    _, observations = simulate(sv_model(true_params), steps, derive_stream(SeedSpec(master_seed, 0)))
    return observations


def check_sv_posterior_sampling(master_seed: int, iterations: int, n_particles: int,
                                steps: int, seeds: int, acf_slack: Optional[float] = None,
                                rate_window=(0.01, 0.9),
                                workers: Optional[int] = None) -> CheckResult:
    """Both posterior samplers stay healthy on a synthetic volatility record.

    Health means every chain completes with an acceptance rate inside
    ``rate_window``; when ``acf_slack`` is given, the guided variant's mean
    autocorrelation of F over lags 1-50 (pooled across seeds, after
    burn-in) must not exceed the plain variant's by more than ``acf_slack``.
    """
    observations = synthetic_sv_record(master_seed, steps)
    config = PmmhConfig(
        iterations=iterations, n_particles=n_particles, epsilon=3.5, lag=5,
        cap=1_000_000, alpha=1.95, beta=0.05, delta=0.0,
        burn_in_fraction=0.1, acf_max_lag=50, mode="relative",
    )
    tasks = []
    for seed_index in range(seeds):
        for algo in ("alive", "alive-twisted"):
            stream_id = 100 + 2 * seed_index + (algo == "alive-twisted")
            tasks.append((observations, config, algo, master_seed, stream_id))

    if workers is None:
        workers = os.cpu_count() or 1
    outcomes = parallel_map(_sv_chain_task, tasks, workers)

    details = []
    passed = True
    acfs = {"alive": [], "alive-twisted": []}
    for (_, _, algo, _, _), (rate, cap_events, early, f_series) in zip(tasks, outcomes):
        ok = rate_window[0] < rate < rate_window[1]
        passed = passed and ok
        details.append(f"{algo}: rate {rate:.3f}, {early} early rejections"
                       + (f", {cap_events} cap events" if cap_events else ""))
        if acf_slack is not None:
            try:
                acfs[algo].append(acf(f_series, config.acf_max_lag)[1:])
            except ValueError:  # F never moved after burn-in: no autocorrelation to compare
                details.append(f"{algo}: F chain stuck after burn-in")
                acfs[algo].append(np.full(config.acf_max_lag, math.nan))
    if acf_slack is not None:
        mean_plain = float(np.mean(acfs["alive"]))
        mean_twisted = float(np.mean(acfs["alive-twisted"]))
        passed = passed and mean_twisted <= mean_plain + acf_slack
        details.append(
            f"mean F autocorrelation lags 1-{config.acf_max_lag}: "
            f"twisted {mean_twisted:.4f} vs plain {mean_plain:.4f} (slack {acf_slack})"
        )
    return CheckResult("volatility posterior sampling", passed, "; ".join(details))


_QUICK = "quick"
_FULL = "full"


def run_selftest(level: str = _QUICK, master_seed: int = 20260815,
                 workers: Optional[int] = None) -> List[CheckResult]:
    """Run every health check at the requested scale."""
    if level not in (_QUICK, _FULL):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    full = level == _FULL
    results = []

    def timed(builder):
        start = time.perf_counter()
        result = builder()
        result.detail += f" [{time.perf_counter() - start:.1f}s]"
        results.append(result)

    timed(lambda: check_stopping_time_mean(master_seed, reps=100_000 if full else 3_000))
    timed(lambda: check_discrete_unbiasedness(master_seed, reps=10_000 if full else 400))
    timed(lambda: check_optimal_twist_exact(master_seed, instances=29 if full else 5))
    if full:
        timed(lambda: check_lg_unbiasedness(master_seed, 2000, 200, 100, 500))
        timed(lambda: check_variance_reduction(master_seed, steps=50, n_particles=200,
                                               replicates=100, repetitions=10, min_wins=9,
                                               workers=workers or 1))
        timed(lambda: check_grid_posterior(master_seed, iterations=100_000, tolerance=0.05))
        timed(lambda: check_sv_posterior_sampling(master_seed, iterations=5_000,
                                                  n_particles=50, steps=200, seeds=5,
                                                  acf_slack=0.05, workers=workers))
    else:
        timed(lambda: check_lg_unbiasedness(master_seed, 500, 50, 50, 100))
        timed(lambda: check_variance_reduction(master_seed, steps=20, n_particles=50,
                                               replicates=20, repetitions=3, min_wins=2,
                                               cap=100_000, workers=workers or 1))
        timed(lambda: check_grid_posterior(master_seed, iterations=4_000, tolerance=0.05))
        timed(lambda: check_sv_posterior_sampling(master_seed, iterations=120, n_particles=20,
                                                  steps=40, seeds=1, rate_window=(0.0, 1.0),
                                                  workers=workers))
    return results

"""Selftest checks: reproducibility across processes, the replicate-mean rule,
and the grid-posterior oracle's power to fail."""

import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from alivetwist import selftest
from alivetwist.pmmh import run_chain
from alivetwist.rng import SeedSpec, derive_stream
from alivetwist.selftest import (
    _replicate_means,
    check_discrete_unbiasedness,
    check_grid_posterior,
    check_optimal_twist_exact,
    check_sv_posterior_sampling,
    toy_discrete_instance,
)
from alivetwist.smc import NormConstEstimate, StoppingTimeCapError

from helpers import src_env, stream_for


def _discrete_check_detail(hash_seed: str) -> str:
    script = (
        "from alivetwist.selftest import check_discrete_unbiasedness; "
        "print(check_discrete_unbiasedness(7, reps=20).detail)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=src_env(PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_discrete_check_seeds_do_not_depend_on_string_hashing():
    assert _discrete_check_detail("1") == _discrete_check_detail("2")


def test_sv_posterior_check_is_the_same_in_a_worker_pool():
    """The posterior check gives the same verdict and detail whether its
    chains run in this process or in two workers."""
    def check(workers):
        result = check_sv_posterior_sampling(7, iterations=20, n_particles=10, steps=10,
                                             seeds=1, workers=workers)
        return result.passed, result.detail

    assert check(1) == check(2)


def test_exact_discrete_estimators_pass(monkeypatch):
    """On a table that accepts every symbol, the plain alive estimate and the
    twisted ones under the constant and acceptance-prob twists equal the
    marginal exactly: those replicates have no spread, and the check must
    pass them with z = 0 rather than divide by their zero spread.

    The random-positive twist's factors do not cancel, so its case is a
    20-run z-test rather than an exact one; random-twist unbiasedness is
    covered at 800 runs by ``TestAliveTwistedDiscrete`` instead."""
    accept_all = np.ones((3, 3), dtype=bool)
    monkeypatch.setattr(selftest, "toy_discrete_instance",
                        partial(toy_discrete_instance, acceptance=accept_all))
    detail = check_discrete_unbiasedness(1, reps=20).detail
    cases = dict(part.split(": ", 1) for part in detail.split("; "))
    assert cases["alive"] == "mean 1.00000 vs 1.00000 (z = 0.00)", detail
    for twist in ("constant", "acceptance-prob"):
        assert cases[f"twisted[{twist}]"] == "mean 1.00000 (z = 0.00)", detail


def test_optimal_twist_check_passes():
    result = check_optimal_twist_exact(1, instances=3)
    assert result.passed, result.detail


def test_discrete_check_passes_at_seed_one():
    """The quick selftest's discrete check at seed 1, on that seed's own table."""
    result = check_discrete_unbiasedness(1, reps=400)
    assert result.passed, result.detail


def _constant_case(value: float, target: float):
    return ("mean {mean:.3f} vs {target:.3f}", lambda stream: value,
            derive_stream(SeedSpec(3, 0)), 10, target)


def test_constant_estimate_off_its_target_fails():
    result = _replicate_means("constant", [_constant_case(1.5, 1.0)])
    assert not result.passed
    assert result.detail == "mean 1.500 vs 1.000 (z = inf)"


def test_constant_estimate_on_its_target_passes():
    result = _replicate_means("constant", [_constant_case(1.0, 1.0)])
    assert result.passed
    assert result.detail == "mean 1.000 vs 1.000 (z = 0.00)"


def test_zero_spread_tolerates_only_rounding_in_the_target():
    """An exact estimate of 1 against an oracle a few ulps off (the
    finite-state recursion's 1 + 4.4e-16 at seed 1) passes; 1e-9 off fails."""
    assert _replicate_means("constant", [_constant_case(1.0, 1.0 + 4.4e-16)]).passed
    assert not _replicate_means("constant", [_constant_case(1.0, 1.0 + 1e-9)]).passed


GRID_SEED = 20260815


def test_grid_posterior_passes_under_early_rejection(monkeypatch):
    """The grid chain runs plain alive filters, so its candidates run under
    the rejection floor; it still reproduces the exact posterior."""
    records = []

    def spy(*args):
        records.append(run_chain(*args))
        return records[-1]

    monkeypatch.setattr(selftest, "run_chain", spy)
    result = check_grid_posterior(GRID_SEED, iterations=2000, tolerance=0.05)
    assert result.passed, result.detail
    assert records[0].early_rejected > 0


def _stuck(run_filter, log_prior, propose, sample_prior, iterations, stream):
    """Only the initial state's filter run completes; every candidate's exhausts
    its cap, so the chain never leaves its start."""
    runs = []

    def first_only(theta, s):
        if runs:
            raise StoppingTimeCapError(0, 10, 0, 10, 10)
        runs.append(theta)
        return run_filter(theta, s)

    return run_chain(first_only, log_prior, propose, sample_prior, iterations, stream)


def _always_accept(run_filter, log_prior, propose, sample_prior, iterations, stream):
    """A flat prior and a constant estimate: every flip is accepted."""
    def flat(theta, s):
        return [], NormConstEstimate.from_log_factors([0.0])

    return run_chain(flat, lambda theta: 0.0, propose, sample_prior, iterations, stream)


@pytest.mark.parametrize("chain", [_stuck, _always_accept], ids=["stuck", "always-accept"])
def test_grid_posterior_fails_a_broken_chain(monkeypatch, chain):
    monkeypatch.setattr(selftest, "run_chain", chain)
    result = check_grid_posterior(GRID_SEED, iterations=2000, tolerance=0.05)
    assert not result.passed, result.detail


def test_sv_posterior_check_compares_acf_only_when_given_a_slack():
    """With a slack the check ends its detail with the mean F autocorrelation
    line and judges it: a slack of 2 always passes and -2 never does, since
    both means lie in [-1, 1]; without a slack the line is absent."""
    def check(acf_slack):
        return check_sv_posterior_sampling(7, iterations=60, n_particles=10, steps=10, seeds=1,
                                           acf_slack=acf_slack, rate_window=(0.0, 1.0),
                                           workers=1)

    lenient, impossible, plain = check(2.0), check(-2.0), check(None)
    assert lenient.passed and not impossible.passed and plain.passed
    rates, line = lenient.detail.rsplit("; ", 1)
    assert line.startswith("mean F autocorrelation lags 1-50: twisted ")
    assert line.endswith("(slack 2.0)")
    assert plain.detail == rates


def test_sv_posterior_check_reports_a_stuck_chain(monkeypatch):
    """An F chain that never moves after burn-in has no autocorrelation: the
    full-level comparison fails the check and names the chain, not raises."""
    def chain(args):
        stuck = args[2] == "alive-twisted"
        return 0.3, 0, 0, np.full(200, 0.1) if stuck else stream_for(7).standard_normal(200)

    monkeypatch.setattr(selftest, "_sv_chain_task", chain)
    result = check_sv_posterior_sampling(7, iterations=200, n_particles=10, steps=10, seeds=1,
                                         acf_slack=2.0, workers=1)
    assert not result.passed
    assert "alive-twisted: F chain stuck after burn-in" in result.detail
    assert "twisted nan vs plain " in result.detail

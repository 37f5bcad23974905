"""Selftest checks: reproducibility across processes and the replicate-mean rule."""

import subprocess
import sys

from alivetwist.rng import SeedSpec, derive_stream
from alivetwist.selftest import _replicate_means, check_discrete_unbiasedness, toy_discrete_instance

from helpers import src_env


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


def test_exact_discrete_estimators_pass():
    """Seed 1's acceptance table accepts every symbol, so every alive
    estimate equals the marginal exactly and the replicates have no spread."""
    params, _, _ = toy_discrete_instance(1)
    assert params.acceptance.all()
    result = check_discrete_unbiasedness(1, reps=20)
    assert result.passed, result.detail
    assert "(z = inf)" not in result.detail


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

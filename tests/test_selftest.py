"""Selftest checks: reproducibility across processes."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _discrete_check_detail(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = (
        "from alivetwist.selftest import check_discrete_unbiasedness; "
        "print(check_discrete_unbiasedness(7, reps=20).detail)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_discrete_check_seeds_do_not_depend_on_string_hashing():
    assert _discrete_check_detail("1") == _discrete_check_detail("2")

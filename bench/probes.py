"""Isolated layer probes and the two experiment-command timings of the traced run.

Each probe calls one public primitive on fixed-size inputs made from the
seed and reports the median time per call over batches, so it does not
depend on which workload is being traced.  The command timings run
``variance_grid`` serially and on two worker processes (their rows must be
identical) and ``alivetwist selftest --level quick`` in a subprocess with a
fixed ``PYTHONHASHSEED``; they are the only parts of the benchmark that use
more than one process.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

from alivetwist import (
    AbcKernel,
    derive_stream,
    lg_model,
    lg_twist,
    sample_until_alive,
    simulate,
    stable_sample,
)
from alivetwist.configs import GridConfig
from alivetwist.experiments import variance_grid

from workloads import (
    CAP, LAG, LG_EPSILON, LG_PARAMS, LG_RELATIVE_FLOOR, PROBE_STREAMS, Check, stream, stream_spec,
)

PROBE_SECONDS = 0.3
GRID = GridConfig(
    phi=0.9, nu2_values=[1.0], tau2_values=[0.5, 1.0], replicates=30, steps=50,
    n_particles=100, epsilon=LG_EPSILON, lag=LAG, cap=CAP, mode="relative",
)


def per_call_us(fn, seconds: float = PROBE_SECONDS) -> float:
    """Median over batches of the mean time per call, in microseconds."""
    fn()
    start = time.perf_counter()
    fn()
    batch = max(1, int(0.005 / max(time.perf_counter() - start, 1e-7)))
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < 5 or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return 1e6 * statistics.median(samples)


def layer_probes(seed: int) -> dict:
    s = stream(seed, PROBE_STREAMS, 0)
    model = lg_model(LG_PARAMS)
    kernel = AbcKernel(LG_EPSILON, "relative", LG_RELATIVE_FLOOR)
    twist = lg_twist(LG_PARAMS, LAG)
    _, record = simulate(model, 2 * LAG, stream(seed, PROBE_STREAMS, 1))
    states = model.transition_sampler(model.init_state_sampler(s, 2000), s)
    pseudo_obs = model.observation_sampler(states, s)
    spec = stream_spec(seed, PROBE_STREAMS, 2)

    def propose(s, count):
        k = model.transition_sampler(model.init_state_sampler(s, count), s)
        return {"states": k, "pseudo_obs": model.observation_sampler(k, s)}

    def alive_step(n):
        return lambda: sample_until_alive(propose, kernel, 1.0, n, CAP, s)

    def stable(n):
        return lambda: stable_sample(s, 1.95, 0.05, 0.5, 0.0, size=n)

    out = {
        "rng.derive_stream_us": per_call_us(lambda: derive_stream(spec)),
        "models.stable_sample.us_n200": per_call_us(stable(200)),
        "models.stable_sample.us_n2000": per_call_us(stable(2000)),
        "kernels.weights.us_n2000": per_call_us(lambda: kernel.weights(pseudo_obs, 1.0)),
        "smc.sample_until_alive.us_n200": per_call_us(alive_step(200)),
        "smc.sample_until_alive.us_n2000": per_call_us(alive_step(2000)),
        "twist.log_qh_alive.us_n2000": per_call_us(
            lambda: twist.log_qh_alive(record, states, kernel)),
    }
    return {name: (value, "us") for name, value in out.items()}


def command_timings(seed: int, root) -> tuple:
    """(metrics, checks) for the variance-grid and selftest commands."""
    start = time.perf_counter()
    serial = variance_grid(GRID, seed, workers=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    pooled = variance_grid(GRID, seed, workers=2)
    pooled_s = time.perf_counter() - start

    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    selftest = subprocess.run(
        [sys.executable, "-m", "alivetwist", "selftest", "--level", "quick", "--workers", "1"],
        cwd=root, env=env, capture_output=True, text=True, timeout=150,
    )
    selftest_s = time.perf_counter() - start
    metrics = {
        "experiments.variance_grid.serial_s": (serial_s, "s"),
        "experiments.variance_grid.workers2_s": (pooled_s, "s"),
        "experiments.variance_grid.workers2_efficiency": (serial_s / (2 * pooled_s), "ratio"),
        "selftest.quick_s": (selftest_s, "s"),
    }
    checks = [
        Check("variance_grid rows equal for workers 1 and 2", serial == pooled,
              f"{len(serial)} rows"),
        Check("selftest --level quick passes", selftest.returncode == 0,
              (selftest.stdout.strip() or selftest.stderr).splitlines()[-1][:200]),
    ]
    return metrics, checks

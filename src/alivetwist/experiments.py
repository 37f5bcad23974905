"""Reproducible experiment drivers: variance sweeps and posterior runs.

Every unit of work (one dataset simulation, one filter replicate, one chain)
owns an arithmetically assigned stream id, so a sweep gives byte-identical
results whether replicates run serially or across a worker pool — workers
never share generator state, they just claim their ids.
"""

from __future__ import annotations

import csv
import datetime
import math
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

import numpy as np

from .configs import FILTERS, GridConfig, PmmhConfig
from .models import LinearGaussianParams, StochasticVolatilityParams, lg_model, simulate
from .pmmh import (
    ChainRecord,
    SvPriorSpec,
    SvProposalSpec,
    run_chain,
    sv_log_prior,
    sv_propose,
    sv_sample_prior,
)
from .rng import SeedSpec, derive_stream
from .smc import StoppingTimeCapError


def log_sample_variance(log_values) -> Optional[float]:
    """log Var of values given on the log scale, without leaving it.

    Shifts by the max before exponentiating so widely scaled values stay
    finite; returns None when the sample variance is zero or undefined.
    """
    log_values = np.asarray(log_values, dtype=float)
    if log_values.size < 2 or not np.all(np.isfinite(log_values)):
        return None
    shift = float(log_values.max())
    variance = float(np.var(np.exp(log_values - shift), ddof=1))
    if variance <= 0.0 or not np.isfinite(variance):
        return None
    return 2.0 * shift + float(np.log(variance))


def parallel_map(fn, tasks, workers: int, chunksize: int = 1) -> list:
    """``[fn(task) for task in tasks]``, spread over ``workers`` processes when
    there is more than one; ``fn`` must be top-level so the pool can pickle it.
    The pool has at most one process per task: under ``fork`` the executor
    starts all of its processes at once."""
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks, chunksize=chunksize))
    return [fn(task) for task in tasks]


def _grid_replicate(args):
    """One filter replicate of one grid cell; top-level so pools can pickle it."""
    config, master_seed, stream_id, nu2, tau2, observations, algo = args
    params = LinearGaussianParams(config.phi, nu2, tau2)
    stream = derive_stream(SeedSpec(master_seed, stream_id))
    try:
        _, estimate = FILTERS[algo].run_params(params, config.kernel, observations, config, stream)
    except StoppingTimeCapError as err:
        return ("cap_exceeded", str(err))
    return ("ok", estimate.log_total)


def variance_grid(config: GridConfig, master_seed: int, workers: int = 1) -> List[dict]:
    """Compare estimator variance of the plain and twisted alive filters.

    For each (nu2, tau2) cell one dataset is simulated and shared by both
    filters across all replicates; the cell reports the log sample variance
    of each filter's normalising-constant estimate and their difference.
    Cells where a replicate hits the proposal cap, or where an estimator is
    exactly constant, are reported with a status instead of numbers.
    """
    cells = [(nu2, tau2) for nu2 in config.nu2_values for tau2 in config.tau2_values]
    stride = 2 * config.replicates + 1
    tasks = []
    for index, (nu2, tau2) in enumerate(cells):
        data_stream = derive_stream(SeedSpec(master_seed, index * stride))
        model = lg_model(LinearGaussianParams(config.phi, nu2, tau2))
        _, observations = simulate(model, config.steps, data_stream)
        for replicate in range(config.replicates):
            base = index * stride + 1 + 2 * replicate
            tasks.append((config, master_seed, base, nu2, tau2, observations, "alive"))
            tasks.append((config, master_seed, base + 1, nu2, tau2, observations, "alive-twisted"))

    outcomes = parallel_map(_grid_replicate, tasks, workers, chunksize=8)

    rows = []
    per_cell = 2 * config.replicates
    for index, (nu2, tau2) in enumerate(cells):
        cell_outcomes = outcomes[index * per_cell : (index + 1) * per_cell]
        row = {
            "nu2": nu2,
            "tau2": tau2,
            "status": "ok",
            "log_var_alive": None,
            "log_var_twisted": None,
            "log_var_diff": None,
            "reason": "",
        }
        failures = [detail for status, detail in cell_outcomes if status != "ok"]
        if failures:
            row["status"] = "cap_exceeded"
            row["reason"] = failures[0]
            rows.append(row)
            continue
        log_alive = [value for _, value in cell_outcomes[0::2]]
        log_twisted = [value for _, value in cell_outcomes[1::2]]
        var_alive = log_sample_variance(log_alive)
        var_twisted = log_sample_variance(log_twisted)
        if var_alive is None or var_twisted is None:
            row["status"] = "degenerate"
            row["reason"] = "estimator variance is zero or undefined in this cell"
            rows.append(row)
            continue
        row["log_var_alive"] = var_alive
        row["log_var_twisted"] = var_twisted
        row["log_var_diff"] = var_alive - var_twisted
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# data loading
# ---------------------------------------------------------------------------


def load_returns(path: str) -> np.ndarray:
    """Log returns from a CSV of (ISO date, closing price) rows.

    A header row is skipped if its price field is not numeric.  Prices must
    be positive and dates strictly ascending; the result is log(p_n / p_{n-1}).
    """
    dates: List[datetime.date] = []
    prices: List[float] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        for line, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{line}: expected date and price columns")
            try:
                price = float(row[1])
            except ValueError:
                if line == 1:
                    continue  # header
                raise ValueError(f"{path}:{line}: price {row[1]!r} is not a number") from None
            try:
                date = datetime.date.fromisoformat(row[0].strip())
            except ValueError:
                raise ValueError(f"{path}:{line}: date {row[0]!r} is not an ISO date") from None
            if not 0 < price < math.inf:
                raise ValueError(f"{path}:{line}: price {price} is not positive and finite")
            if dates and date <= dates[-1]:
                raise ValueError(f"{path}:{line}: dates are not strictly ascending")
            dates.append(date)
            prices.append(price)
    if len(prices) < 2:
        raise ValueError(f"{path}: need at least two prices to form returns")
    return np.diff(np.log(np.asarray(prices)))


def load_observations(path: str, column: str = "observation") -> np.ndarray:
    """A named numeric column from a headed CSV file."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [cell.strip() for cell in header]
        if column not in header:
            raise ValueError(f"{path}: no column named {column!r} (have {header})")
        position = header.index(column)
        values = []
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                values.append(float(row[position]))
            except (IndexError, ValueError):
                raise ValueError(f"{path}:{line}: malformed row") from None
            if not math.isfinite(values[-1]):
                raise ValueError(f"{path}:{line}: observation {values[-1]} is not finite")
    if not values:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# posterior runs for the volatility model
# ---------------------------------------------------------------------------


def sv_filter_runner(observations, config: PmmhConfig, algo: str):
    """The (theta, stream) -> (generations, estimate) hook for the chain;
    ``algo`` is looked up in FILTERS here, so an unknown name raises KeyError."""
    observations = np.asarray(observations, dtype=float)
    runner = FILTERS[algo]

    def run_filter(theta, stream):
        params = StochasticVolatilityParams(
            F=theta.F, nu2=theta.nu2, alpha=config.alpha, beta=config.beta,
            gamma=theta.gamma, delta=config.delta,
        )
        return runner.run_params(params, config.kernel, observations, config, stream)

    return run_filter


def run_sv_pmmh(observations, config: PmmhConfig, algo: str, master_seed: int,
                stream_id: int = 0) -> ChainRecord:
    """One pseudo-marginal chain for the volatility model, under the default
    prior and random-walk proposal."""
    prior, proposal = SvPriorSpec(), SvProposalSpec()
    return run_chain(
        sv_filter_runner(observations, config, algo),
        lambda theta: sv_log_prior(prior, theta),
        lambda theta, stream: sv_propose(proposal, theta, stream),
        lambda stream: sv_sample_prior(prior, stream),
        config.iterations,
        derive_stream(SeedSpec(master_seed, stream_id)),
    )

"""Command-line interface.

Subcommands: ``simulate`` draws a synthetic record, ``filter`` runs one of
the four filters over a record, ``variance-grid`` sweeps the plain/twisted
variance comparison, ``pmmh`` runs a posterior chain for the volatility
model, and ``selftest`` runs the built-in health checks.

Exit codes: 0 success, 1 usage/configuration/data error (including a
non-finite observation), 2 selftest failure, 3 run aborted because a filter
step exhausted its proposal cap, every bootstrap particle's weight vanished,
or no prior draw could start a PMMH chain.

All CSV output is deterministic byte-for-byte for a given configuration and
master seed (including under ``--workers``), using RFC-4180 CRLF rows and
shortest round-trip float formatting.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import List, Optional

import numpy as np

from .configs import (
    FILTERS,
    ConfigError,
    load_config,
    build_model,
    parse_filter,
    parse_grid,
    parse_kernel,
    parse_model,
    parse_pmmh,
    parse_simulate_steps,
)
from .experiments import load_observations, load_returns, run_sv_pmmh, variance_grid
from .models import simulate
from .pmmh import ChainStartError, acf
from .rng import SeedSpec, derive_stream
from .selftest import run_selftest
from .smc import ParticleDeathError, StoppingTimeCapError


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header: List[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _build_parser() -> _Parser:
    parser = _Parser(prog="alivetwist", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = commands.add_parser("simulate", help="draw a synthetic latent/observed record")
    sim.add_argument("--config", required=True, help="JSON config with a 'model' section")
    sim.add_argument("--steps", type=int, default=None, help="record length (overrides config)")
    sim.add_argument("--seed", type=int, default=0, help="master seed")
    sim.add_argument("--out", required=True, help="output CSV path")

    flt = commands.add_parser("filter", help="run one filter over a record")
    flt.add_argument("--algo", required=True, choices=list(FILTERS))
    flt.add_argument("--config", required=True,
                     help="JSON config with 'model', 'kernel' and 'filter' sections")
    flt.add_argument("--data", required=True, help="input CSV with an observation column")
    flt.add_argument("--column", default="observation", help="observation column name")
    flt.add_argument("--seed", type=int, default=0, help="master seed")
    flt.add_argument("--out", required=True, help="output CSV path")

    grid = commands.add_parser("variance-grid",
                               help="compare plain/twisted estimator variance over a noise grid")
    grid.add_argument("--config", required=True, help="JSON config with a 'grid' section")
    grid.add_argument("--seed", type=int, default=0, help="master seed")
    grid.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    grid.add_argument("--out", required=True, help="output CSV path")

    chain = commands.add_parser("pmmh", help="sample the volatility-model posterior")
    chain.add_argument("--algo", required=True,
                       choices=[name for name, algo in FILTERS.items() if algo.uses_kernel])
    chain.add_argument("--config", required=True, help="JSON config with a 'pmmh' section")
    chain.add_argument("--data", required=True, help="input CSV")
    chain.add_argument("--data-kind", default="observations", choices=["observations", "prices"],
                       help="'prices' converts a date,price CSV into log returns")
    chain.add_argument("--column", default="observation",
                       help="observation column name (data-kind observations)")
    chain.add_argument("--seed", type=int, default=0, help="master seed")
    chain.add_argument("--out-dir", required=True,
                       help="directory for chain.csv, acf.csv and summary.json")

    check = commands.add_parser("selftest", help="run the built-in health checks")
    check.add_argument("--level", default="quick", choices=["quick", "full"])
    check.add_argument("--seed", type=int, default=20260815, help="master seed")
    check.add_argument("--workers", type=int, default=None,
                       help="worker processes for the heavier checks")
    return parser


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    model = build_model(parse_model(config))
    steps = parse_simulate_steps(config) if args.steps is None else args.steps
    if steps is None or steps < 1:
        raise ConfigError("provide a positive --steps or a 'simulate.steps' config key")
    stream = derive_stream(SeedSpec(args.seed, 0))
    latents, observations = simulate(model, steps, stream)
    _write_csv(
        args.out,
        ["step", "latent", "observation"],
        [(t + 1, latents[t], observations[t]) for t in range(steps)],
    )
    return 0


def _cmd_filter(args) -> int:
    config = load_config(args.config)
    params = parse_model(config)
    run = parse_filter(config)
    observations = load_observations(args.data, column=args.column)
    stream = derive_stream(SeedSpec(args.seed, 0))

    algo = FILTERS[args.algo]
    twisted = algo.twisted
    kernel = parse_kernel(config) if algo.uses_kernel else None
    generations, estimate = algo.run_params(params, kernel, observations, run, stream)

    header = ["step", "stopping_time", "log_factor", "cumulative_log_z"]
    if twisted:
        header += ["qh_sum", "wh_sum"]
    rows = []
    cumulative = np.cumsum(estimate.log_factors)
    for t, generation in enumerate(generations):
        stopping_time = getattr(generation, "stopping_time", run.n_particles)
        row = [t + 1, stopping_time, estimate.log_factors[t], float(cumulative[t])]
        if twisted:
            row += [float(np.exp(generation.log_qh_sum)), float(np.exp(generation.log_wh_sum))]
        rows.append(row)
    _write_csv(args.out, header, rows)
    return 0


def _cmd_variance_grid(args) -> int:
    config = parse_grid(load_config(args.config))
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    rows = variance_grid(config, args.seed, workers=args.workers)
    _write_csv(args.out, list(rows[0]), [row.values() for row in rows])
    return 0


def _cmd_pmmh(args) -> int:
    config = parse_pmmh(load_config(args.config))
    if args.data_kind == "prices":
        observations = load_returns(args.data)
    else:
        observations = load_observations(args.data, column=args.column)
    observations = observations[: config.steps]  # steps None keeps the whole record
    record = run_sv_pmmh(observations, config, args.algo, args.seed)

    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(args.out_dir, "chain.csv"),
        ["iteration", "F", "nu2", "gamma", "log_zhat", "accepted"],
        [
            (
                iteration,
                theta.F,
                theta.nu2,
                theta.gamma,
                record.log_zhats[iteration],
                int(record.accepted[iteration]),
            )
            for iteration, theta in enumerate(record.thetas)
        ],
    )

    burn_in = config.burn_in
    acf_rows = []
    columns = {}
    for name in ("F", "nu2", "gamma"):
        series = record.theta_field(name)[burn_in:]
        try:
            columns[name] = acf(series, config.acf_max_lag)
        except ValueError:
            columns[name] = np.full(config.acf_max_lag + 1, np.nan)
    for lag in range(config.acf_max_lag + 1):
        acf_rows.append((lag, columns["F"][lag], columns["nu2"][lag], columns["gamma"][lag]))
    _write_csv(os.path.join(args.out_dir, "acf.csv"), ["lag", "F", "nu2", "gamma"], acf_rows)

    summary = {
        "algo": args.algo,
        "acceptance_rate": record.acceptance_rate,
        "cap_exceeded": record.cap_exceeded,
        "early_rejected": record.early_rejected,
        "iterations": record.iterations,
        "burn_in": burn_in,
        "n_particles": config.n_particles,
        "epsilon": config.epsilon,
        "lag": config.lag,
        "steps": int(observations.size),
        "master_seed": args.seed,
    }
    if FILTERS[args.algo].twisted:
        summary["twist"] = "gaussian-lookahead, observation variance 2*gamma^2"
    with open(os.path.join(args.out_dir, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return 0


def _cmd_selftest(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    results = run_selftest(level=args.level, master_seed=args.seed, workers=args.workers)
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        all_passed = all_passed and result.passed
        print(f"{status} — {result.name}: {result.detail}")
    if not all_passed:
        print("selftest failed", file=sys.stderr)
        return 2
    print(f"selftest passed ({len(results)} checks)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "simulate": _cmd_simulate,
        "filter": _cmd_filter,
        "variance-grid": _cmd_variance_grid,
        "pmmh": _cmd_pmmh,
        "selftest": _cmd_selftest,
    }
    try:
        # extreme finite observations overflow squared distances to inf; the
        # filters turn that into particle death or a cap error, reported below
        with np.errstate(over="ignore"):
            return handlers[args.command](args)
    except (StoppingTimeCapError, ParticleDeathError, ChainStartError) as err:
        print(f"alivetwist: aborted: {err}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as err:
        print(f"alivetwist: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the alivetwist package: one workload, one seed, one JSON line.

    python3 bench/run.py --workload lg-small-n --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, and the run stops with exit code 2 (and no result line) if it is
not there.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped: ``unit_cost_p50``, the median unit wall time in reference blocks
timed alongside (see ``reference.py``), and ``setup_s``.  ``--trace 1``
runs the workload once untraced and once with timing proxies on every
injected dependency, requires both to give bit-identical estimates, and
reports the per-layer metrics, the tracing overhead, the isolated layer
probes and the experiment-command timings; its spans are written to
``.bench_out/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; lines before it starting
with ``info`` or ``check`` are the figures that are not gated and the
correctness gate.  A failed gate prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TRACE_SHARE = 0.25  # of --seconds, for the untraced pass of a traced run
TWISTED_CHAIN_SHARE = 0.1
PMMH_PROBE_SECONDS = 3.0
TWISTED_UNIT_OFFSET = 1_000_000


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pmmh_pass(sv, seconds: float, twisted_seconds: float):
    """Untraced chains, the same chains traced, then a traced twisted chain."""
    from tracing import Tracer
    from workloads import TWISTED_CHAIN_STREAMS

    tracer = Tracer()
    untraced = sv.run_chains(seconds)
    traced = sv.run_chains(0.0, plan=[len(c.iteration_s) for c in untraced.chains], tracer=tracer)
    same = [c.thetas for c in traced.chains] == [c.thetas for c in untraced.chains]
    sv.run_chains(twisted_seconds, base=TWISTED_CHAIN_STREAMS, tracer=tracer,
                  algo="alive-twisted", unit_offset=TWISTED_UNIT_OFFSET)

    def total(run):
        return sum(c.init_s + sum(c.iteration_s) for c in run.chains)

    return tracer, untraced, same, total(traced) / total(untraced)


def _traced(bench, spec, seed: int, seconds: float):
    from layers import filter_layers, per_filter_breakdown, pmmh_layers
    from probes import command_timings, layer_probes
    from tracing import Tracer
    from workloads import WORKLOADS, Check, LgBench, SvBench

    if isinstance(bench, LgBench):
        untraced = bench.measure(seconds * TRACE_SHARE)
        tracer = Tracer()
        traced = bench.measure(0.0, rounds=untraced.rounds, tracer=tracer)
        same = traced.values == untraced.values
        overhead = sum(map(sum, traced.times)) / sum(map(sum, untraced.times))
        outcome = bench.outcome(untraced)
        probe = SvBench(WORKLOADS["sv-pmmh"], seed)
        pmmh_tracer, chain_run, pmmh_same, _ = _pmmh_pass(
            probe, PMMH_PROBE_SECONDS, PMMH_PROBE_SECONDS / 2)
        same = same and pmmh_same
    else:
        tracer, chain_run, same, overhead = _pmmh_pass(
            bench, seconds * TRACE_SHARE, seconds * TWISTED_CHAIN_SHARE)
        pmmh_tracer = tracer
        outcome = bench.outcome(chain_run)

    metrics = {"trace.overhead_ratio": (overhead, "ratio")}
    metrics.update(filter_layers(tracer, spec.steps, spec.n_particles))
    metrics.update(pmmh_layers(pmmh_tracer, chain_run.chains, TWISTED_UNIT_OFFSET))
    metrics.update(layer_probes(seed))
    command_metrics, command_checks = command_timings(seed, ROOT)
    metrics.update(command_metrics)
    checks = outcome["checks"] + command_checks
    checks.append(Check("traced run reproduces the untraced run", same, ""))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{spec.name}-seed{seed}.json")
    info = dict(outcome["info"])
    info.update(per_filter_breakdown(tracer))
    info["trace.spans"] = (len(tracer), "count")
    return {"metrics": metrics, "info": info, "attempted": outcome["attempted"],
            "failed": outcome["failed"], "checks": checks}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import alivetwist
    except ImportError as err:
        print(f"bench: cannot import alivetwist from {SRC}: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if Path(alivetwist.__file__).resolve().parent.parent != SRC.resolve():
        print(f"bench: alivetwist was imported from {alivetwist.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Check, LgBench, make_bench

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        bench = make_bench(args.workload, args.seed)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    if args.trace:
        result = _traced(bench, spec, args.seed, args.seconds)
    elif isinstance(bench, LgBench):
        result = bench.outcome(bench.measure(args.seconds))
    else:
        result = bench.outcome(bench.run_chains(args.seconds))
    if not args.trace:
        result["metrics"]["setup_s"] = (setup_s, "s")

    checks = list(result["checks"])
    bad = sorted(name for name, (value, _) in result["metrics"].items() if not math.isfinite(value))
    checks.append(Check("every metric is finite", not bad, ", ".join(bad)))
    for name, (value, unit) in result["info"].items():
        print(f"info {name} {value:.6g} {unit}")
    for check in checks:
        print(f"check {'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    correct = all(check.passed for check in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(value) if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in sorted(result["metrics"].items())
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs, timed units, and the correctness gate.

Every random stream is ``SeedSpec(seed, base).child(offset)`` with a fixed
base per purpose (records, warm-up, replicates, chains), so the same
``--seed`` gives the same inputs and the same results in every process.

Linear-Gaussian workloads (``lg-small-n``, ``lg-large-n``) run rounds.  A
round is one run of each of the four filters on one simulated record; rounds
2k and 2k + 1 use record k mod ``records``, so any two rounds give a
within-record pair for the gate.  Many records per run average out how much
the record itself makes the alive filters work (the relative tolerance ball
is narrow around observations near zero).

The volatility workload (``sv-pmmh``) runs pseudo-marginal chains of
``chain_length`` iterations from a prior draw, one after another, until the
time is used.  Each chain is started with ``run_chain(..., iterations=0)``
and advanced with ``pmmh_step``, which is exactly what ``run_chain`` does
and lets each iteration be timed from outside.

Untraced runs time a reference block between units (see ``reference``); the
gated metric is the median unit time in reference blocks.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.special import logsumexp

from alivetwist import (
    DEFAULT_TRIAL_CAP,
    AbcKernel,
    LinearGaussianParams,
    ParticleDeathError,
    SeedSpec,
    StochasticVolatilityParams,
    StoppingTimeCapError,
    SvPriorSpec,
    SvProposalSpec,
    SvTheta,
    alive_filter,
    alive_twisted_filter,
    bootstrap_filter,
    derive_stream,
    kalman_log_marginal,
    lg_model,
    lg_twist,
    pmmh_step,
    run_chain,
    simulate,
    sv_log_prior,
    sv_model,
    sv_propose,
    sv_sample_prior,
    sv_twist,
    twisted_bootstrap_filter,
)
from alivetwist.configs import PmmhConfig
from alivetwist.experiments import sv_filter_runner
from alivetwist.selftest import synthetic_sv_record

from reference import Reference
from tracing import TracedKernel, TracedTwist, Tracer, traced_model

LG_PARAMS = LinearGaussianParams(phi=0.9, nu2=1.0, tau2=1.0)
LG_EPSILON = 1.5
# The relative ball is widened to at least +-0.15 for observations within 0.1
# of zero; without the floor, an observation within ~1e-3 of zero makes an
# alive step at N=2000 spend the whole proposal cap and abort.
LG_RELATIVE_FLOOR = 0.1
LAG = 5
CAP = DEFAULT_TRIAL_CAP
SV_EPSILON = 3.5
FILTERS = ("alive", "alive_twisted", "bootstrap", "twisted_bootstrap")

# Gate threshold in standard errors.  At 20 replicates a correct estimator
# with Var(log Z) = 0.3 to 1 passes a 6-SE check of the log-normal mean in
# all but 0.003 to 0.02 % of runs (by simulation); 4 SE would fail 0.2 to 0.3 %.
Z_LIMIT = 6.0

RECORD_STREAMS = 0
WARMUP_STREAMS = 100_000
REPLICATE_STREAMS = 1_000_000
CHAIN_STREAMS = 10_000_000
TWISTED_CHAIN_STREAMS = 20_000_000
PROBE_STREAMS = 30_000_000


def stream_spec(seed: int, base: int, offset: int) -> SeedSpec:
    """The stream address for unit ``offset`` of purpose ``base``."""
    return SeedSpec(seed, base).child(offset)


def stream(seed: int, base: int, offset: int) -> np.random.Generator:
    return derive_stream(stream_spec(seed, base, offset))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def _log_mean_stats(log_ratios):
    """log E[Z/Z_ref] and its standard error, reading log(Z/Z_ref) as normal.

    Particle estimates of Z are close to log-normal, so exp(mean + var / 2)
    estimates the mean ratio with far steadier error than the raw sample
    mean of exp(log_ratios) at a few dozen replicates.
    """
    x = np.asarray(log_ratios, dtype=float)
    if x.size < 2:
        return float("nan"), float("nan")
    var = float(x.var(ddof=1))
    return float(x.mean()) + var / 2, math.sqrt(var / x.size + var**2 / (2 * (x.size - 1)))


def _ratio_stats(log_values, log_refs):
    """Mean and standard error of exp(log_values - log_refs)."""
    ratios = np.exp(np.asarray(log_values) - np.asarray(log_refs))
    if ratios.size < 2:
        return float("nan"), float("nan")
    return float(ratios.mean()), float(ratios.std(ddof=1) / math.sqrt(ratios.size))


# ---------------------------------------------------------------------------
# linear-Gaussian rounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LgSpec:
    name: str
    steps: int
    n_particles: int
    records: int
    reference_size: int


@dataclass(frozen=True)
class Deps:
    """The injected dependencies every filter receives."""

    model: object
    kernel: object
    twist: object


def _stored_particles(result) -> int:
    return sum(int(getattr(g, "stopping_time", len(g.states))) for g in result[0])


def filter_table(tracer: Optional[Tracer] = None) -> dict:
    """name -> run(deps, observations, n_particles, stream); spans around the calls if traced."""

    def maybe(span, fn):
        return tracer.wrap(span, fn, _stored_particles) if tracer is not None else fn

    alive = maybe("smc.alive_filter", alive_filter)
    alive_twisted = maybe("twist.alive_twisted_filter", alive_twisted_filter)
    bootstrap = maybe("smc.bootstrap_filter", bootstrap_filter)
    twisted_bootstrap = maybe("twist.twisted_bootstrap_filter", twisted_bootstrap_filter)
    return {
        "alive": lambda d, y, n, s: alive(d.model, d.kernel, y, n, CAP, s),
        "alive_twisted": lambda d, y, n, s: alive_twisted(d.model, d.kernel, d.twist, y, n, CAP, s),
        "bootstrap": lambda d, y, n, s: bootstrap(d.model, y, n, s),
        "twisted_bootstrap": lambda d, y, n, s: twisted_bootstrap(d.model, d.twist, y, n, s),
    }


@dataclass
class LgRun:
    """Per round: the record used, each filter's log estimate (None if it raised) and time."""

    record: List[int] = field(default_factory=list)
    values: List[list] = field(default_factory=list)
    times: List[list] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    reference: Optional[Reference] = None

    @property
    def rounds(self) -> int:
        return len(self.values)


class LgBench:
    """Set-up and timed rounds of one linear-Gaussian workload at one seed."""

    def __init__(self, spec: LgSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        model = lg_model(LG_PARAMS)
        self.records = [
            simulate(model, spec.steps, stream(seed, RECORD_STREAMS, k))[1]
            for k in range(spec.records)
        ]
        self.log_z = [kalman_log_marginal(LG_PARAMS, y) for y in self.records]
        kernel = AbcKernel(LG_EPSILON, "relative", LG_RELATIVE_FLOOR)
        self.deps = Deps(model, kernel, lg_twist(LG_PARAMS, LAG))
        self.table = filter_table()
        for i, name in enumerate(FILTERS):  # untimed warm-up unit
            self.table[name](self.deps, self.records[0], spec.n_particles,
                             stream(seed, WARMUP_STREAMS, i))

    def record_of(self, r: int) -> int:
        """Rounds come in pairs on one record, so any two rounds give a within-record pair."""
        return (r // 2) % len(self.records)

    def run_round(self, r: int, table: dict, deps: Deps):
        y = self.records[self.record_of(r)]
        values, times = [], []
        for i, name in enumerate(FILTERS):
            s = stream(self.seed, REPLICATE_STREAMS, len(FILTERS) * r + i)
            start = time.perf_counter()
            try:
                _, estimate = table[name](deps, y, self.spec.n_particles, s)
                value = estimate.log_total
            except (StoppingTimeCapError, ParticleDeathError):
                value = None
            times.append(time.perf_counter() - start)
            values.append(value)
        return values, times

    def measure(self, seconds: float, rounds: Optional[int] = None,
                tracer: Optional[Tracer] = None) -> LgRun:
        """Rounds until ``seconds`` elapse, or exactly ``rounds`` (traced if ``tracer``)."""
        table, deps = self.table, self.deps
        run = LgRun()
        if tracer is not None:
            table = filter_table(tracer)
            deps = Deps(traced_model(tracer, self.deps.model),
                        TracedKernel(tracer, self.deps.kernel),
                        TracedTwist(tracer, self.deps.twist))
        else:
            run.reference = Reference(self.spec.reference_size)
        deadline = time.perf_counter() + seconds
        while (run.rounds < rounds) if rounds is not None else (
                not run.values or time.perf_counter() < deadline):
            if tracer is not None:
                tracer.unit = run.rounds
            else:
                run.reference.tick()
            run.starts.append(time.perf_counter())
            values, times = self.run_round(run.rounds, table, deps)
            run.record.append(self.record_of(run.rounds))
            run.values.append(values)
            run.times.append(times)
        if run.reference is not None:
            run.reference.tick(force=True)
        return run

    def outcome(self, run: LgRun) -> dict:
        """End-to-end metrics, per-filter figures and the gate for one measured run."""
        round_s = [sum(t) for t in run.times]
        attempted = run.rounds * len(FILTERS)
        failed = sum(v is None for values in run.values for v in values)
        info = {
            "rounds": (run.rounds, "count"),
            "unit_ms_p50": (1e3 * statistics.median(round_s), "ms"),
            "reference_ms_p50": (run.reference.median_ms(), "ms"),
            "units_per_s": (run.rounds / sum(round_s), "1/s"),
            "fail_rate": (failed / attempted, "ratio"),
        }
        for i, name in enumerate(FILTERS):
            ms = [1e3 * t[i] for t in run.times]
            info[f"{name}.run_ms_p50"] = (statistics.median(ms), "ms")
            if len(ms) >= 100:  # ten samples beyond p90
                info[f"{name}.run_ms_p90"] = (percentile(ms, 90), "ms")
            var = self._mean_record_variance(run, i)
            if var is not None:
                info[f"{name}.var_log_z"] = (var, "1")
                info[f"{name}.cost_var"] = (var * statistics.median(ms), "ms")
        cost = run.reference.cost(run.starts, round_s)
        metrics = {"unit_cost_p50": (float(np.median(cost)), "ref")}
        return {"metrics": metrics, "info": info, "attempted": attempted, "failed": failed,
                "checks": self.gate(run, self.log_z)}

    @staticmethod
    def _mean_record_variance(run: LgRun, i: int) -> Optional[float]:
        by_record = {}
        for record, values in zip(run.record, run.values):
            if values[i] is not None:
                by_record.setdefault(record, []).append(values[i])
        variances = [np.var(v, ddof=1) for v in by_record.values() if len(v) >= 2]
        return float(np.mean(variances)) if variances else None

    @staticmethod
    def gate(run: LgRun, log_z) -> List[Check]:
        """Bootstrap filters against Kalman ``log_z``; the alive filters against each other."""
        checks = []

        for name in ("bootstrap", "twisted_bootstrap"):
            i = FILTERS.index(name)
            log_mean, se = _log_mean_stats(
                [v[i] - log_z[rec] for rec, v in zip(run.record, run.values) if v[i] is not None])
            z = abs(log_mean) / se if se > 0 else float("inf")
            checks.append(Check(f"{name} mean Z/Z_kalman is 1", bool(z <= Z_LIMIT),
                                f"log mean {log_mean:.4f} se {se:.4f} z {z:.2f}"))
        # Both alive filters estimate the record's ABC marginal, which has no
        # closed form: compare them record by record, each record scaled by
        # the pooled mean of its estimates, and sum the differences.
        diff = var = 0.0
        for record in sorted(set(run.record)):
            logs = [np.array([v[i] for rec, v in zip(run.record, run.values)
                              if rec == record and v[i] is not None])
                    for i in (FILTERS.index("alive"), FILTERS.index("alive_twisted"))]
            if min(v.size for v in logs) < 2:
                continue
            pooled = np.concatenate(logs)
            scale = float(logsumexp(pooled)) - math.log(pooled.size)
            (mean_a, se_a), (mean_t, se_t) = (_ratio_stats(v, scale) for v in logs)
            diff += mean_a - mean_t
            var += se_a**2 + se_t**2
        z = abs(diff) / math.sqrt(var) if var > 0 else float("inf")
        checks.append(Check("alive and alive_twisted agree", bool(z <= Z_LIMIT),
                            f"summed per-record difference {diff:.4f} z {z:.2f}"))
        return checks


# ---------------------------------------------------------------------------
# volatility-model chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SvSpec:
    name: str
    steps: int
    n_particles: int
    chain_length: int
    reference_size: int


@dataclass
class Chain:
    """One chain: rows of theta (row 0 is the initial state), flags, and timings."""

    thetas: list
    accepted: List[bool] = field(default_factory=list)
    cap_exceeded: List[bool] = field(default_factory=list)
    iteration_s: List[float] = field(default_factory=list)
    iteration_starts: List[float] = field(default_factory=list)
    init_s: float = 0.0


@dataclass
class SvRun:
    chains: List[Chain] = field(default_factory=list)
    reference: Optional[Reference] = None


class SvBench:
    """Set-up and timed chains of the volatility posterior workload at one seed."""

    TRUE_THETA = (0.5, 0.01, 0.5)  # F, nu2, gamma of synthetic_sv_record

    def __init__(self, spec: SvSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.observations = synthetic_sv_record(seed, spec.steps)
        self.config = PmmhConfig(
            iterations=spec.chain_length, n_particles=spec.n_particles, epsilon=SV_EPSILON,
            lag=LAG, cap=CAP, alpha=1.95, beta=0.05, delta=0.0, burn_in_fraction=0.1,
            acf_max_lag=50, mode="relative",
        )
        self.prior = SvPriorSpec()
        self.proposal = SvProposalSpec()
        run_filter = sv_filter_runner(self.observations, self.config, "alive")
        # untimed warm-up unit
        run_filter(SvTheta(*self.TRUE_THETA), stream(seed, WARMUP_STREAMS, 0))

    def callables(self, algo: str = "alive"):
        """The four run_chain callables, built as run_sv_pmmh builds them."""
        return (
            sv_filter_runner(self.observations, self.config, algo),
            lambda theta: sv_log_prior(self.prior, theta),
            lambda theta, s: sv_propose(self.proposal, theta, s),
            lambda s: sv_sample_prior(self.prior, s),
        )

    def traced_callables(self, tracer: Tracer, algo: str = "alive"):
        """The same callables with spans on each and proxies on every filter dependency."""
        config, observations = self.config, self.observations
        kernel = TracedKernel(tracer, AbcKernel(config.epsilon, config.mode))
        alive = tracer.wrap("smc.alive_filter", alive_filter, _stored_particles)
        twisted = tracer.wrap("twist.alive_twisted_filter", alive_twisted_filter, _stored_particles)

        def run_filter(theta, s):
            params = StochasticVolatilityParams(
                F=theta.F, nu2=theta.nu2, alpha=config.alpha, beta=config.beta,
                gamma=theta.gamma, delta=config.delta,
            )
            model = traced_model(tracer, sv_model(params))
            if algo == "alive":
                return alive(model, kernel, observations, config.n_particles, config.cap, s)
            twist = TracedTwist(tracer, sv_twist(params, config.lag))
            return twisted(model, kernel, twist, observations, config.n_particles, config.cap, s)

        _, log_prior, propose, sample_prior = self.callables(algo)
        return (
            tracer.wrap("pmmh.run_filter", run_filter),
            tracer.wrap("pmmh.log_prior", log_prior),
            tracer.wrap("pmmh.propose", propose),
            tracer.wrap("pmmh.sample_prior", sample_prior),
        )

    def run_chains(self, seconds: float, base: int = CHAIN_STREAMS,
                   plan: Optional[List[int]] = None, tracer: Optional[Tracer] = None,
                   algo: str = "alive", unit_offset: int = 0) -> SvRun:
        """Chains until ``seconds`` elapse, or exactly ``plan[c]`` iterations of chain c."""
        run = SvRun()
        if tracer is None:
            callables = self.callables(algo)
            start_chain, step = run_chain, pmmh_step
            run.reference = Reference(self.spec.reference_size)
        else:
            callables = self.traced_callables(tracer, algo)
            start_chain = tracer.wrap("pmmh.run_chain", run_chain)
            step = tracer.wrap("pmmh.pmmh_step", pmmh_step)
        run_filter, log_prior, propose, sample_prior = callables
        deadline = time.perf_counter() + seconds
        chains = run.chains
        unit = unit_offset
        while (len(chains) < len(plan)) if plan is not None else (
                not chains or time.perf_counter() < deadline):
            length = plan[len(chains)] if plan is not None else self.spec.chain_length
            s = stream(self.seed, base, len(chains))
            if tracer is not None:
                tracer.unit = unit
            else:
                run.reference.tick()
            begin = time.perf_counter()
            state = start_chain(run_filter, log_prior, propose, sample_prior, 0, s).final_state
            chain = Chain(thetas=[state.theta], init_s=time.perf_counter() - begin)
            chains.append(chain)
            for _ in range(length):
                if plan is None and chain.iteration_s and time.perf_counter() >= deadline:
                    break
                if tracer is not None:
                    tracer.unit = unit
                else:
                    run.reference.tick()
                unit += 1
                begin = time.perf_counter()
                state, info = step(state, run_filter, log_prior, propose, s)
                chain.iteration_s.append(time.perf_counter() - begin)
                chain.iteration_starts.append(begin)
                chain.thetas.append(state.theta)
                chain.accepted.append(info.accepted)
                chain.cap_exceeded.append(info.cap_exceeded)
        if run.reference is not None:
            run.reference.tick(force=True)
        return run

    def outcome(self, run: SvRun) -> dict:
        chains = run.chains
        iteration_ms = [1e3 * t for c in chains for t in c.iteration_s]
        total_s = sum(c.init_s + sum(c.iteration_s) for c in chains)
        iterations = len(iteration_ms)
        caps = sum(sum(c.cap_exceeded) for c in chains)
        accepted = sum(sum(c.accepted) for c in chains)
        info = {
            "chains": (len(chains), "count"),
            "pmmh.iterations": (iterations, "count"),
            "pmmh.iters_per_s": (iterations / total_s, "1/s"),
            "unit_ms_p50": (statistics.median(iteration_ms), "ms"),
            "reference_ms_p50": (run.reference.median_ms(), "ms"),
            "pmmh.acceptance_rate": (accepted / iterations, "ratio"),
            # a cap-aborted iteration is a completed MH step that rejects;
            # it is counted here, not as a failed operation
            "fail_rate": (caps / iterations, "ratio"),
        }
        if iterations >= 100:
            info["pmmh.iter_ms_p90"] = (percentile(iteration_ms, 90), "ms")
        cost = run.reference.cost([t for c in chains for t in c.iteration_starts],
                                  [t for c in chains for t in c.iteration_s])
        metrics = {"unit_cost_p50": (float(np.median(cost)), "ref")}
        return {"metrics": metrics, "info": info, "attempted": iterations, "failed": 0,
                "checks": self.gate(chains)}

    @staticmethod
    def gate(chains: List[Chain]) -> List[Check]:
        """Every chain row is finite and the chains both accept and reject."""
        rows = [(t.F, t.nu2, t.gamma) for c in chains for t in c.thetas]
        finite = all(math.isfinite(x) for row in rows for x in row)
        steps = sum(len(c.accepted) for c in chains)
        rate = sum(sum(c.accepted) for c in chains) / steps
        return [
            Check("chain rows are finite", finite, f"{len(rows)} rows"),
            Check("acceptance rate in (0, 1)", 0.0 < rate < 1.0, f"rate {rate:.4f} over {steps}"),
        ]


WORKLOADS = {
    "lg-small-n": LgSpec("lg-small-n", steps=50, n_particles=200, records=40, reference_size=400),
    "lg-large-n": LgSpec("lg-large-n", steps=200, n_particles=2000, records=30,
                         reference_size=4000),
    "sv-pmmh": SvSpec("sv-pmmh", steps=200, n_particles=50, chain_length=50, reference_size=400),
}


def make_bench(name: str, seed: int):
    spec = WORKLOADS[name]
    return LgBench(spec, seed) if isinstance(spec, LgSpec) else SvBench(spec, seed)

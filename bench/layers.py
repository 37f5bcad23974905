"""Per-layer metrics computed from the traced run's spans.

Layer times are self times (a span's duration minus its child spans) summed
by the package module the span belongs to, per traced filter run.  Counts
are read at the same boundaries: ``kernels.weights`` spans carry the number
of proposals scored, filter spans the particles they stored (the sum of the
alive stopping times), ``sample_guided_pair`` the trials it reports and
``propose_guided_states`` the candidates it drew.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracing import FILTER_SPANS, Tracer


def _prefix(names, prefix: str) -> np.ndarray:
    return np.fromiter((n.startswith(prefix) for n in names), dtype=bool, count=len(names))


def _children_of(a: dict, parents_mask: np.ndarray, name: str) -> np.ndarray:
    """Spans called ``name`` whose direct parent is selected by ``parents_mask``."""
    parent = a["parent"]
    has_parent = parent >= 0
    under = np.zeros(len(parent), dtype=bool)
    under[has_parent] = parents_mask[parent[has_parent]]
    return (a["name"] == name) & under


def filter_layers(tracer: Tracer, steps: int, n_particles: int) -> dict:
    """Layer times per filter run and the alive filters' proposal accounting."""
    a = tracer.arrays()
    names, self_s, count, failed = a["name"], a["self"], a["count"], a["failed"]
    is_filter = np.isin(names, FILTER_SPANS)
    runs = max(int(is_filter.sum()), 1)

    def per_run_ms(mask):
        return 1e3 * float(self_s[mask].sum()) / runs

    twist = _prefix(names, "twist.")
    plain = (names == "smc.alive_filter") & ~failed
    guided = (names == "twist.alive_twisted_filter") & ~failed
    plain_batches = _children_of(a, plain, "kernels.weights")
    guided_batches = _children_of(a, guided, "kernels.weights")
    plain_drawn = float(count[plain_batches].sum())
    plain_steps = max(steps * int(plain.sum()), 1)
    guided_steps = max(steps * int(guided.sum()), 1)
    guided_draws = float(
        count[_children_of(a, guided, "twist.sample_guided_pair")].sum()
        + count[_children_of(a, guided, "twist.propose_guided_states")].sum()
    )
    kernel_weights = names == "kernels.weights"
    return {
        "smc.filter_self_ms": (per_run_ms(np.isin(names, FILTER_SPANS[:2])), "ms"),
        "twist.filter_self_ms": (per_run_ms(np.isin(names, FILTER_SPANS[2:])), "ms"),
        "twist.hooks_ms": (per_run_ms(twist & ~is_filter), "ms"),
        "models.ms": (per_run_ms(_prefix(names, "models.")), "ms"),
        "kernels.weights.ms": (per_run_ms(kernel_weights), "ms"),
        "kernels.weights.calls": (float(kernel_weights.sum()) / runs, "count"),
        "smc.proposals_per_accept": (plain_drawn / (n_particles * plain_steps), "ratio"),
        "smc.speculative_waste": (
            (plain_drawn - float(count[plain].sum())) / max(plain_drawn, 1.0), "ratio"),
        "smc.batches_per_step": (float(plain_batches.sum()) / plain_steps, "count"),
        "smc.cap_events": (float((is_filter & failed).sum()), "count"),
        "twist.proposals_per_accept": (
            float(count[guided_batches].sum()) / (n_particles * guided_steps), "ratio"),
        "twist.guided_draws_per_step": (guided_draws / guided_steps, "count"),
    }


def per_filter_breakdown(tracer: Tracer) -> dict:
    """``<filter>.<span>.self_ms`` per run of that filter, for the printed report."""
    a = tracer.arrays()
    names, parents, self_s = a["name"], a["parent"], a["self"]
    root = np.full(len(names), -1, dtype=np.int64)
    for i in range(len(names)):  # parents precede their children
        if names[i] in FILTER_SPANS:
            root[i] = i
        elif parents[i] >= 0:
            root[i] = root[parents[i]]
    totals = defaultdict(float)
    runs = defaultdict(int)
    for i in np.flatnonzero(root >= 0):
        filt = names[root[i]].split(".", 1)[1].removesuffix("_filter")
        totals[f"{filt}.{names[i]}.self_ms"] += 1e3 * self_s[i]
        if root[i] == i:
            runs[filt] += 1
    return {key: (value / runs[key.split(".", 1)[0]], "ms")
            for key, value in sorted(totals.items())}


def pmmh_layers(tracer: Tracer, chains, twisted_unit_offset: int) -> dict:
    """Chain-level shares from the traced plain chains plus the untraced chain figures."""
    a = tracer.arrays()
    names, duration, self_s, unit = a["name"], a["duration"], a["self"], a["unit"]
    plain = unit < twisted_unit_offset
    steps = plain & (names == "pmmh.pmmh_step")
    step_s = float(duration[steps].sum())
    filters = _children_of(a, steps, "pmmh.run_filter")
    capped = np.zeros(len(names), dtype=bool)
    capped[a["parent"][filters & a["failed"]]] = True  # the step whose filter hit the cap
    iterations = sum(len(c.iteration_s) for c in chains)
    total_s = sum(c.init_s + sum(c.iteration_s) for c in chains)
    bookkeeping = plain & np.isin(names, ("pmmh.pmmh_step", "pmmh.run_chain"))
    twisted_runs = (~plain) & (names == "twist.alive_twisted_filter") & ~a["failed"]
    twisted_ms = [1e3 * d for d in duration[twisted_runs]] or [float("nan")]
    return {
        "pmmh.iters_per_s": (iterations / total_s, "1/s"),
        "pmmh.acceptance_rate": (sum(sum(c.accepted) for c in chains) / iterations, "ratio"),
        "pmmh.filter_share": (float(duration[filters].sum()) / step_s, "ratio"),
        "pmmh.cap_time_share": (float(duration[capped].sum()) / step_s, "ratio"),
        "pmmh.self_ms": (1e3 * float(self_s[bookkeeping].sum()) / iterations, "ms"),
        "pmmh.sv_twisted_filter_ms": (statistics.median(twisted_ms), "ms"),
    }

"""In-memory span recorder and the timing proxies used by the traced run.

The traced run measures the same program as the untraced one: every
dependency the library accepts by injection (the ``HmmModel`` sampler
closures, the kernel object, the duck-typed twist object and the callables
handed to ``run_chain``) is replaced by a proxy that records one span per
call and forwards to the real object unchanged.  No code inside the package
is patched, so spans sit at the package's own layer boundaries.

A span is (name, start, end, parent span, unit id, count, failed).  Spans
are kept in flat lists while the run goes and written out once at the end.
A span's self time is its duration minus the time its child spans cover;
calls are single-threaded and nested, so that cover is the plain sum of the
children's durations.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Callable, Optional

import numpy as np

FILTER_SPANS = (
    "smc.alive_filter",
    "smc.bootstrap_filter",
    "twist.alive_twisted_filter",
    "twist.twisted_bootstrap_filter",
)


class Tracer:
    """Records nested spans and the counts taken at their boundaries."""

    def __init__(self) -> None:
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.units: list = []
        self.counts: list = []
        self.failed: list = []
        self.unit = -1
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call; ``count(result)`` is stored with it."""

        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.units.append(self.unit)
            self.counts.append(0)
            self.failed.append(False)
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[index] = True
                raise
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[index] = count(result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.names)

    def arrays(self) -> dict:
        """Columnar numpy view of every span recorded so far."""
        names = np.asarray(self.names, dtype=object)
        starts = np.asarray(self.starts, dtype=float)
        ends = np.asarray(self.ends, dtype=float)
        parents = np.asarray(self.parents, dtype=np.int64)
        duration = ends - starts
        has_parent = parents >= 0
        child_cover = np.bincount(
            parents[has_parent], weights=duration[has_parent], minlength=len(names)
        )
        return {
            "name": names,
            "duration": duration,
            "self": duration - child_cover,
            "parent": parents,
            "unit": np.asarray(self.units, dtype=np.int64),
            "count": np.asarray(self.counts, dtype=float),
            "failed": np.asarray(self.failed, dtype=bool),
        }

    def write(self, path) -> None:
        """Dump all spans as columnar JSON (times in seconds from the first span)."""
        origin = self.starts[0] if self.starts else 0.0
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        payload = {
            "names": table,
            "name": [code[name] for name in self.names],
            "start": [round(t - origin, 7) for t in self.starts],
            "end": [round(t - origin, 7) for t in self.ends],
            "parent": self.parents,
            "unit": self.units,
            "count": self.counts,
            "failed": [int(f) for f in self.failed],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _size(result) -> int:
    return int(np.size(result))


_MODEL_CLOSURES = (
    "init_state_sampler",
    "transition_sampler",
    "observation_sampler",
    "log_observation_density",
    "log_lookahead_predictive",
)


def traced_model(tracer: Tracer, model):
    """The same ``HmmModel`` with every present closure wrapped in a span."""
    wrapped = {
        name: tracer.wrap(f"models.{name}", getattr(model, name), _size)
        for name in _MODEL_CLOSURES
        if getattr(model, name) is not None
    }
    return dataclasses.replace(model, **wrapped)


class TracedKernel:
    """Forwards ``weights`` and ``interval`` to a kernel, one span per call."""

    def __init__(self, tracer: Tracer, kernel) -> None:
        self._kernel = kernel
        self.weights = tracer.wrap("kernels.weights", kernel.weights, _size)
        self.interval = tracer.wrap("kernels.interval", kernel.interval)

    def __getattr__(self, name):
        return getattr(self._kernel, name)


_TWIST_COUNTS = {
    "sample_guided_pair": lambda result: int(result[2]),
    "propose_guided_states": _size,
}


class TracedTwist:
    """Forwards every attribute of a twist; callables get a span per call.

    Attributes the twist lacks stay missing, so the filters' optional-hook
    checks (``getattr(twist, name, None)``) see exactly what they would see
    without the proxy.
    """

    def __init__(self, tracer: Tracer, twist) -> None:
        self._tracer = tracer
        self._twist = twist

    def __getattr__(self, name):
        value = getattr(self._twist, name)
        if callable(value):
            value = self._tracer.wrap(f"twist.{name}", value, _TWIST_COUNTS.get(name))
            setattr(self, name, value)
        return value

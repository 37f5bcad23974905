"""A fixed computation timed between units, to cancel machine-speed drift.

The benchmark machine is shared, and its speed drifts by tens of percent
within minutes: the same lg-small-n round took 28 ms in one 10-second
window and 45 ms in another two minutes away, on 2 CPUs.  ``Reference.tick``
times a fixed block of numpy and Python work at most every ``PERIOD_S``
seconds between units.  The block imitates alive steps on ``size``
particles (random draws, a tolerance test, a cumulative sum, a search, pool
assembly, a log-sum-exp) but calls no alivetwist code, so no change to the
package can move it.  ``Reference.cost`` divides each unit's wall time by
the median of the ``NEIGHBOURS`` blocks timed nearest to it, which
expresses the unit in reference blocks.

Each workload sets ``size`` to the block that tracked it best.  Over
10-second windows of one repeated lg-small-n round, the spread
(q3 - q1) / median of the raw median time was 27 % and that of the cost
2.4 % at size 400 (6 % with plain vector arithmetic); for a repeated
lg-large-n round, 11 % raw and 6 % at size 4000 (9 % at size 400).
"""

from __future__ import annotations

import math
import time

import numpy as np

PERIOD_S = 0.2
NEIGHBOURS = 5
_X = 2.0 * np.sin(0.37 * np.arange(4000))


def _block(rng: np.random.Generator, size: int) -> float:
    """Imitation alive steps on ``size`` particles, 3 to 7 ms in all."""
    x = _X[:size]
    wide = _X[:max(size, 2000)]
    total = 0.0
    for _ in range(min(60, max(16, 24_000 // size))):
        states = 0.9 * x + rng.standard_normal(size)
        pseudo_obs = states + rng.standard_normal(size)
        weights = ((pseudo_obs >= -0.5) & (pseudo_obs <= 1.5)).astype(np.int64)
        cumulative = np.cumsum(weights)
        stop = int(np.searchsorted(cumulative, cumulative[-1] // 2)) + 1
        pool = np.concatenate([states[:stop], pseudo_obs[:stop]])
        total += float(pool.sum()) + float(np.log(np.exp(wide - wide.max()).sum()))
    return total


class Reference:
    """Reference blocks timed during one run."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.stamps: list = []
        self.durations: list = []
        self._next = -math.inf
        self._rng = np.random.Generator(np.random.Philox(0))

    def tick(self, force: bool = False) -> None:
        """Time one block if ``PERIOD_S`` has passed since the last (or if forced)."""
        if not force and time.perf_counter() < self._next:
            return
        start = time.perf_counter()
        _block(self._rng, self.size)
        end = time.perf_counter()
        self.stamps.append(start)
        self.durations.append(end - start)
        self._next = end + PERIOD_S

    def cost(self, stamps, durations) -> np.ndarray:
        """Each unit's duration over the median duration of its nearest blocks."""
        ref_stamps = np.asarray(self.stamps)
        ref_durations = np.asarray(self.durations)
        nearest = [np.argsort(np.abs(ref_stamps - stamp))[:NEIGHBOURS] for stamp in stamps]
        return np.array([
            duration / float(np.median(ref_durations[near]))
            for near, duration in zip(nearest, durations)
        ])

    def median_ms(self) -> float:
        return 1e3 * float(np.median(self.durations))

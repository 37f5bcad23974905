"""Deterministic random-number streams.

Every stochastic routine in this package draws from a stream derived from a
``SeedSpec``.  A stream is numpy's SFC64 generator seeded by
``SeedSequence(master_seed, spawn_key=(stream_id,))``: a pure function of the
(master_seed, stream_id) pair, whatever other streams exist and in whatever
order they are consumed.  Distinct pairs give independent streams through
SeedSequence's spawn-key hashing, the mechanism numpy documents for parallel
streams.  That is what makes serial and worker-pool runs byte-identical: each
unit of work owns its own stream id and never shares generator state.  The
bits depend on the pair and on numpy's SeedSequence and SFC64 algorithms, so
outputs are fixed for a given configuration, seed and numpy bit generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MAX_UINT64 = 2**64 - 1


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one reproducible random stream.

    master_seed: session-level seed shared by a whole run.
    stream_id: distinguishes independent streams within the run.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for field in ("master_seed", "stream_id"):
            value = getattr(self, field)
            if not isinstance(value, (int, np.integer)):
                raise TypeError(f"{field} must be an integer, got {value!r}")
            if not 0 <= value <= _MAX_UINT64:
                raise ValueError(f"{field} must be in [0, 2**64), got {value}")

    def child(self, offset: int) -> "SeedSpec":
        """A sibling stream with stream_id shifted by ``offset``."""
        return SeedSpec(self.master_seed, self.stream_id + offset)


def derive_stream(seed: SeedSpec) -> np.random.Generator:
    """Create the generator addressed by ``seed``.

    SFC64, seeded by a SeedSequence whose entropy is master_seed and whose
    spawn key is (stream_id,): the stream is the spawn_key child of the
    master seed, so distinct stream ids are independent as spawned children
    are, and swapping master_seed and stream_id gives a different stream.
    SFC64 is used for speed: it draws normals 1.2 to 1.7 times and
    uniforms 2.4 times as fast as Philox (numpy 2.4.6, x86-64), at about
    5 µs more per stream created.
    """
    entropy = np.random.SeedSequence(seed.master_seed, spawn_key=(seed.stream_id,))
    return np.random.Generator(np.random.SFC64(entropy))


def gaussian(stream: np.random.Generator, mean: float, variance: float) -> float:
    """One N(mean, variance) variate, as mean + sqrt(variance) * z."""
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    return float(mean + np.sqrt(variance) * stream.standard_normal())


def categorical_many(stream: np.random.Generator, weights, size: int) -> np.ndarray:
    """Vector of ``size`` iid index draws proportional to ``weights``.

    One unsorted search of the scaled uniforms keeps draw order for the
    callers that read it: the finite-state initial sampler, whose draws feed
    alive proposals (the stopping time is a position in that sequence), the
    table twist's guided candidates (the first accepted one is the guided
    pair) and the selftest's prior draw.  They search 2 or 3 weights, where
    sorting the uniforms first only adds cost; the bootstrap filters, whose
    readers ignore order, resample 2000-weight pools through the sorted
    ``smc._resample`` instead.
    Raises ValueError unless ``weights`` is a nonempty 1-d array of
    nonnegative entries with a positive, finite total; the total is the
    cdf's last entry, so NaN, +inf and a sum that overflows all fail it.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("invalid categorical weights: need a nonempty 1-d array")
    if size < 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    cdf = np.cumsum(weights)
    total = cdf[-1]
    if not (0 < total < math.inf and weights.min() >= 0):
        raise ValueError("invalid categorical weights: need nonnegative entries "
                         f"with a positive finite total, got total {total}")
    idx = np.searchsorted(cdf, stream.random(size) * total, side="right")
    return np.minimum(idx, weights.size - 1, out=idx)

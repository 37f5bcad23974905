"""Accept/reject comparison kernels for simulated pseudo-observations.

A kernel maps a batch of simulated observations and one recorded observation
to a boolean acceptance mask: True when the simulation landed close enough to
count.  Anything exposing ``weights(simulated, observed)`` that returns such
a mask plugs into the alive filters, which lets the finite-alphabet oracle
models use exact acceptance tables through the same interface.  A kernel
returning 0/1 integers works too: the engine reads only which positions are
nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _sum_rounded_down(a: float, b: float) -> float:
    """The largest float not above a + b taken exactly.

    TwoSum recovers the rounding error of ``a + b``; when rounding went up,
    step one float down.  An overflowed sum is returned as is.
    """
    total = a + b
    if math.isfinite(total):
        b_part = total - a
        error = (a - (total - b_part)) + (b - b_part)
        if error < 0:
            total = math.nextafter(total, -math.inf)
    return total


@dataclass(frozen=True)
class AbcKernel:
    """Tolerance-ball acceptance around a recorded observation.

    A simulated u is accepted when |u - y| <= half, evaluated exactly, where
    mode "absolute" takes half = epsilon and mode "relative" takes
    half = epsilon * max(|y|, relative_floor), rounded once to a float.
    """

    epsilon: float
    mode: str = "relative"
    relative_floor: float = 1e-8

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.mode not in ("relative", "absolute"):
            raise ValueError(f"mode must be 'relative' or 'absolute', got {self.mode!r}")
        if not 0 < self.relative_floor < math.inf:
            raise ValueError(f"relative_floor must be positive and finite, got {self.relative_floor}")

    def weights(self, simulated, observed: float) -> np.ndarray:
        """The boolean acceptance mask of a batch of simulated observations."""
        lo, hi = self.interval(observed)
        simulated = np.asarray(simulated, dtype=float)
        return (simulated >= lo) & (simulated <= hi)

    def interval(self, observed: float) -> tuple:
        """The closed acceptance interval [lo, hi] around ``observed``.

        The endpoints are y - half and y + half rounded inward, so for every
        float u, ``lo <= u <= hi`` exactly when |u - y| <= half in exact
        arithmetic; ``weights`` is membership in this interval.
        """
        observed = float(observed)
        half = self.epsilon
        if self.mode == "relative":
            half *= max(abs(observed), self.relative_floor)
        return -_sum_rounded_down(-observed, half), _sum_rounded_down(observed, half)


@dataclass(frozen=True)
class DiscreteBallKernel:
    """Acceptance-table kernel over a finite observation alphabet.

    acceptance[y, u] is True when simulated symbol u is accepted for recorded
    symbol y.  This is the finite-state family's only acceptance table: its
    exact oracle and table twists read it through the kernel they are given.
    """

    acceptance: np.ndarray

    def __post_init__(self) -> None:
        acceptance = np.asarray(self.acceptance, dtype=bool)
        if acceptance.ndim != 2 or acceptance.shape[0] != acceptance.shape[1]:
            raise ValueError("acceptance must be a square boolean table")
        object.__setattr__(self, "acceptance", acceptance)

    def weights(self, simulated, observed) -> np.ndarray:
        simulated = np.asarray(simulated, dtype=np.int64)
        return self.acceptance[int(observed), simulated]

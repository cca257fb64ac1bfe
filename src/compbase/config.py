"""Shared knobs for exhaustive sweeps and randomized checks.

CheckConfig is a frozen value (value.Value): equal configs are equal and
hash alike, and a config cannot be changed once made.
"""

from __future__ import annotations

import random
import zlib

from .value import Value


class CheckConfig(Value):
    """Bounds and seeding for every verification routine.

    height_bound caps the multiples of the unit used when sweeping bounded
    regions of an infinite group.  samples is the randomized-check budget.
    Two runs with the same config produce the same verdicts and the same
    reports, byte for byte.
    """

    __slots__ = ("height_bound", "samples", "seed")

    def __init__(self, height_bound: int = 3, samples: int = 1000, seed: int = 0) -> None:
        if height_bound < 1:
            raise ValueError("height_bound must be at least 1")
        if samples < 0:
            raise ValueError("samples must be nonnegative")
        object.__setattr__(self, "height_bound", height_bound)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)

    def rng(self, tag: str = "") -> random.Random:
        """Deterministic stream for one named sweep.

        Distinct tags decorrelate the sweeps while keeping every one of them
        reproducible from the single seed.
        """

        salt = zlib.crc32(tag.encode("utf-8"))
        return random.Random((self.seed * 0x9E3779B1 + salt) & 0x7FFFFFFFFFFFFFFF)

    @property
    def spot(self) -> int:
        """Sample count for cheap side checks of certified facts."""

        return max(8, min(64, self.samples))


DEFAULT = CheckConfig()

"""The sampling budget of the one base that draws samples.

CheckConfig is a frozen value (value.Value): equal configs are equal and
hash alike, and a config cannot be changed once made.
"""

from __future__ import annotations

import random
import zlib

from .value import Value


class CheckConfig(Value):
    """Budget and seeding of the base of all projections on a matrix model.

    Only compression.projection_base takes a config, and its intensional
    base keeps it (CompressionBase.cfg); the clauses that sample that base
    read it there.  Declared bases are decided exactly and carry none.
    samples is the randomized-check budget, and seed seeds every stream.
    Two runs with the same config produce the same verdicts and the same
    reports, byte for byte.
    """

    __slots__ = ("samples", "seed")

    def __init__(self, samples: int = 1000, seed: int = 0) -> None:
        if samples < 0:
            raise ValueError("samples must be nonnegative")
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

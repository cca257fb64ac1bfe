"""Samplers and projection helpers for the symmetric rational matrix model.

All randomness flows through an explicit random.Random instance, so every
sweep is reproducible from its seed. Orthogonal matrices come from the
Cayley transform of a rational antisymmetric matrix, which is exactly
orthogonal in rational arithmetic; conjugating a 0/1 coordinate mask by one
yields an exactly idempotent symmetric rational projection.  A frame is
(integer rows, denominator), and every product is taken on the integers.

A sweep reopens the same tagged streams again and again, so the same draws
recur.  cayley_orthogonal and draw_effect therefore work in two steps:
they draw their integers from rng, in the same calls and the same order as
ever, then hand them to a pure constructor (_cayley_frame, _effect)
memoized by a functools.lru_cache of CACHE_SIZE entries.  The stream is
consumed exactly as without the memo, and a cached frame or effect is an
equal immutable value, so no verdict or report byte depends on the cache.
The sum in draw_positive is not memoized: it is a few percent of a matrix
report, below the run-to-run spread.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import lcm

from . import linalg
from .elements import SymMat

# numerators and denominators of the Cayley generators and effect
# eigenvalues are drawn up to this bound
DEFAULT_BOUND = 16

# entries kept by each memo of the matrix path (_cayley_frame, _effect and
# models._matrix_leq); 256 adds about 0.5 MB to a matrix report
CACHE_SIZE = 256


def is_projection(p: SymMat) -> bool:
    """Exact test: p is symmetric (by type) and p*p == p."""
    return linalg.mat_mul(p.num, p.num) == tuple(
        tuple(p.den * x for x in row) for row in p.num
    )


def commuting_product(p: SymMat, q: SymMat) -> SymMat | None:
    """p q when p and q commute, else None: p q is symmetric exactly then."""
    prod = linalg.mat_mul(p.num, q.num)
    if prod != linalg.transpose(prod):
        return None
    return SymMat(prod, p.den * q.den)


def cayley_orthogonal(dim: int, rng: random.Random):
    """Rational orthogonal matrix (I - S)(I + S)^-1 for random antisymmetric S.

    Draws a numerator in [-DEFAULT_BOUND, DEFAULT_BOUND] and a denominator
    in [1, DEFAULT_BOUND] for each generator pair (i, j), i < j, in row
    order; the frame itself is built by _cayley_frame.
    """
    gens = tuple(
        (rng.randint(-DEFAULT_BOUND, DEFAULT_BOUND), rng.randint(1, DEFAULT_BOUND))
        for _ in range(dim * (dim - 1) // 2)
    )
    return _cayley_frame(dim, gens)


@lru_cache(maxsize=CACHE_SIZE)
def _cayley_frame(dim: int, gens: tuple[tuple[int, int], ...]):
    """The Cayley frame of the generators S_ij = p / q, in (rows, den) form.

    With D the lcm of the generators' denominators, A = D*S is an integer
    matrix and the frame is (D*I - A)(D*I + A)^-1; D*I - A is the
    transpose of D*I + A.  Returned in lowest terms.
    """
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    den = lcm(*(q for _, q in gens))
    plus = [[den * (i == j) for j in range(dim)] for i in range(dim)]
    for (i, j), (p, q) in zip(pairs, gens):
        plus[i][j] = p * (den // q)
        plus[j][i] = -plus[i][j]
    adj, det = linalg.invert(plus)
    return linalg.lowest_terms(linalg.mat_mul(linalg.transpose(plus), adj), det)


def frame_sandwich(frame, diag, den: int = 1) -> SymMat:
    """q^T diag(diag / den) q for an orthogonal frame q = (rows, d).

    Symmetric; for a 0/1 mask `diag` it is an exactly idempotent projection.
    """
    q, d = frame
    scaled = tuple(tuple(k * x for x in row) for k, row in zip(diag, q))
    return SymMat(linalg.mat_mul(linalg.transpose(q), scaled), d * d * den)


def draw_projection(dim: int, rng: random.Random, rank: int | None = None) -> SymMat:
    q = cayley_orthogonal(dim, rng)
    if rank is None:
        bits = [rng.randint(0, 1) for _ in range(dim)]
    else:
        bits = [1] * rank + [0] * (dim - rank)
    return frame_sandwich(q, bits)


def draw_projection_pair(
    dim: int, rng: random.Random, commuting: bool
) -> tuple[SymMat, SymMat]:
    """A pair of projections; commuting=True shares one orthogonal frame."""
    if commuting:
        q = cayley_orthogonal(dim, rng)
        bits_p = [rng.randint(0, 1) for _ in range(dim)]
        bits_q = [rng.randint(0, 1) for _ in range(dim)]
        return frame_sandwich(q, bits_p), frame_sandwich(q, bits_q)
    return draw_projection(dim, rng), draw_projection(dim, rng)


def draw_nested_projections(dim: int, rng: random.Random) -> tuple[SymMat, SymMat]:
    """(p, q) with q <= p, built from nested masks in a shared frame."""
    q_frame = cayley_orthogonal(dim, rng)
    bits_p = [rng.randint(0, 1) for _ in range(dim)]
    bits_q = [b if rng.randint(0, 1) else 0 for b in bits_p]
    return frame_sandwich(q_frame, bits_p), frame_sandwich(q_frame, bits_q)


def draw_effect(dim: int, rng: random.Random) -> SymMat:
    """Random element of the unit interval: q^T D q with diagonal D in [0,1].

    Draws a Cayley frame, then a denominator in [1, DEFAULT_BOUND] and a
    numerator in [0, den] per coordinate; _effect builds the matrix.
    """
    q = cayley_orthogonal(dim, rng)
    ratios = []
    for _ in range(dim):
        den = rng.randint(1, DEFAULT_BOUND)
        ratios.append((rng.randint(0, den), den))
    return _effect(q, tuple(ratios))


@lru_cache(maxsize=CACHE_SIZE)
def _effect(frame, ratios: tuple[tuple[int, int], ...]) -> SymMat:
    den = lcm(*(d for _, d in ratios))
    return frame_sandwich(frame, [n * (den // d) for n, d in ratios], den)


def draw_positive(dim: int, rng: random.Random, height: int) -> SymMat:
    """Sum of at most `height` random effects; lies between 0 and height*unit."""
    total = SymMat.zero(dim)
    for _ in range(rng.randint(0, height)):
        total = total + draw_effect(dim, rng)
    return total


def draw_signed(dim: int, rng: random.Random, height: int) -> SymMat:
    return draw_positive(dim, rng, height) - draw_positive(dim, rng, height)


def random_effect(dim: int, seed: int = 0) -> SymMat:
    """Single-shot deterministic effect sample for a given seed."""
    return draw_effect(dim, random.Random(seed))


def random_projection(dim: int, seed: int = 0) -> SymMat:
    """Single-shot deterministic projection sample for a given seed."""
    return draw_projection(dim, random.Random(seed))

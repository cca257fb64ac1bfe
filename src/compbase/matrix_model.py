"""Samplers and projection helpers for the symmetric rational matrix model.

The projection samplers feed the laws of the base of all projections
(compression.projection_base), whose foci are drawn; a declared base
decides its laws from the conjugator of each focus and draws nothing.
The package itself draws no effects: draw_effect and random_effect serve
library callers and the tests' sampled oracles.  All randomness flows
through an explicit random.Random instance, so every sweep is
reproducible from its seed.  Orthogonal matrices come from the
Cayley transform of a rational antisymmetric matrix, which is exactly
orthogonal in rational arithmetic; conjugating a 0/1 coordinate mask by one
yields an exactly idempotent symmetric rational projection.  A frame is
(integer rows, denominator), and every product is taken on the integers.
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
# entries of the is_projection memo.  report m4 at --samples 8 / 1000 asks
# 126 / 8,780 distinct projection tests; hit ratios 0.885 / 0.858.  The order
# memo models._matrix_leq, which answers is_positive(g) as 0 <= g, is capped
# by models.ORDER_CAP, as the lattice order memo is: the same runs ask 402 /
# 8,707 distinct order questions, so at --samples 8 none is evicted and is_psd
# runs once per question; hit ratios 0.972 / 0.744.
CACHE_SIZE = 256


@lru_cache(maxsize=CACHE_SIZE)
def is_projection(p: SymMat) -> bool:
    """Exact test: p is symmetric (by type) and p*p == p, memoized on p."""
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

    Draws S_ij = p / q, with p in [-DEFAULT_BOUND, DEFAULT_BOUND] and q in
    [1, DEFAULT_BOUND], for each pair (i, j), i < j, in row order.  With D
    the lcm of the denominators, A = D*S is an integer matrix and the frame
    is (D*I - A)(D*I + A)^-1; D*I - A is the transpose of D*I + A.
    Returned in (rows, den) form, in lowest terms.
    """
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    bound = DEFAULT_BOUND
    gens = [(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in pairs]
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

    Draws a Cayley frame q, then a denominator in [1, DEFAULT_BOUND] and a
    numerator in [0, den] per coordinate.
    """
    q = cayley_orthogonal(dim, rng)
    ratios = []
    for _ in range(dim):
        den = rng.randint(1, DEFAULT_BOUND)
        ratios.append((rng.randint(0, den), den))
    den = lcm(*(d for _, d in ratios))
    return frame_sandwich(q, [n * (den // d) for n, d in ratios], den)


def random_effect(dim: int, seed: int = 0) -> SymMat:
    """Single-shot deterministic effect sample for a given seed."""
    return draw_effect(dim, random.Random(seed))


def random_projection(dim: int, seed: int = 0) -> SymMat:
    """Single-shot deterministic projection sample for a given seed."""
    return draw_projection(dim, random.Random(seed))

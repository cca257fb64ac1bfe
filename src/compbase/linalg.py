"""Exact linear algebra over the rationals.

Matrices are immutable tuple-of-tuples with fractions.Fraction entries;
vectors are flat tuples of Fraction. Plain ints are coerced on entry.
Nothing in this module (or anywhere else in the package) touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Mat = "tuple[tuple[Fraction, ...], ...]"
Row = "tuple[Fraction, ...]"


def mat(rows: Iterable[Iterable[object]]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def vec(entries: Iterable[object]) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in entries)


def identity(n: int) -> tuple[tuple[Fraction, ...], ...]:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def zeros(r: int, c: int) -> tuple[tuple[Fraction, ...], ...]:
    zero = Fraction(0)
    return tuple(tuple(zero for _ in range(c)) for _ in range(r))


def transpose(m) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(zip(*m)) if m else ()


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(k, m):
    k = Fraction(k)
    return tuple(tuple(k * x for x in row) for row in m)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(m, v) -> tuple[Fraction, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def rank(m) -> int:
    """Rank over Q, by plain Gaussian elimination on a working copy."""
    work = [list(row) for row in m]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == nrows:
            break
    return r


class SingularMatrixError(ValueError):
    pass


def invert(m):
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    n = len(m)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        work[c], work[piv] = work[piv], work[c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return tuple(tuple(row[n:]) for row in work)


def solve(m, rhs) -> tuple[Fraction, ...]:
    """Solve m x = rhs for square invertible m."""
    return mat_vec(invert(m), rhs)


def is_psd(m) -> bool:
    """Exact positive-semidefiniteness test for a symmetric rational matrix.

    Symmetric Gaussian elimination pivoting on nonzero diagonal entries. The
    matrix is PSD iff no pivot is ever negative and, once no nonzero diagonal
    entry remains, the active residual is entirely zero (a symmetric PSD
    matrix with a zero diagonal entry has no off-diagonal coupling there).
    """
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is None:
            return all(a[i][j] == 0 for i in active for j in active)
        d = a[piv][piv]
        if d < 0:
            return False
        active.remove(piv)
        for i in active:
            f = a[i][piv]
            if f:
                for j in active:
                    a[i][j] -= f * a[piv][j] / d
    return True


def int_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]

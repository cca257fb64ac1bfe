"""Exact linear algebra over the rationals.

Fractions are the interface and integers the arithmetic.  Matrices are
immutable tuple-of-tuples with fractions.Fraction entries; vectors are flat
tuples of Fraction; int entries are accepted wherever a Fraction is.  The
kernels (products, elimination, the PSD test) scale each row to integer
numerators over one denominator, compute on ints, and build a Fraction
only for each entry they return.  Nothing in this module (or anywhere
else in the package) touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


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


def _int_rows(rows):
    """Each row as (integer numerators, the lcm of its denominators); ints pass through."""
    out = []
    for row in rows:
        ratios = [x.as_integer_ratio() for x in row]
        den = lcm(*[d for _, d in ratios])
        out.append(([n * (den // d) for n, d in ratios], den))
    return out


def mat_mul(a, b):
    cols = _int_rows(transpose(b))
    return tuple(
        tuple(Fraction(sum(map(mul, row, col)), da * db) for col, db in cols)
        for row, da in _int_rows(a)
    )


def mat_vec(m, v) -> tuple[Fraction, ...]:
    ((col, dv),) = _int_rows((v,))
    return tuple(Fraction(sum(map(mul, row, col)), dm * dv) for row, dm in _int_rows(m))


def _bareiss(a, ncols: int, jordan: bool = False) -> tuple[int, int, int]:
    """Fraction-free elimination of the integer rows `a`, in place (Bareiss 1968).

    Pivots on the first `ncols` columns left to right, skipping a column
    with no nonzero entry at or below the current row.  Each step replaces
    row i by (p * a[i] - a[i][c] * a[r]) // prev, with p the new pivot and
    prev the last one; the division is exact.  Rows below the pivot are
    cleared, and with `jordan` the rows above too (Gauss-Jordan), which
    leaves the last pivot on every pivot row's diagonal.  Returns the rank,
    the sign of the row permutation and the last pivot.
    """
    n = len(a)
    r, sign, prev = 0, 1, 1
    for c in range(ncols):
        if r == n:
            break
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        row = a[r]
        p = row[c]
        for i in range(0 if jordan else r + 1, n):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
        prev = p
        r += 1
    return r, sign, prev


def rank(m) -> int:
    """Rank over Q, by fraction-free elimination of the scaled integer rows."""
    work = [row for row, _ in _int_rows(m)]
    return _bareiss(work, len(work[0]) if work else 0)[0]


class SingularMatrixError(ValueError):
    pass


def invert(m):
    """Exact inverse of a square rational matrix.

    With m = diag(1/d) N for integer N, fraction-free Gauss-Jordan takes
    [N | I] to [D*I | D*N^-1], and m^-1 = N^-1 diag(d).
    """
    n = len(m)
    rows = _int_rows(m)
    work = [row + [int(i == j) for j in range(n)] for i, (row, _) in enumerate(rows)]
    r, _, det = _bareiss(work, n, jordan=True)
    if r < n:
        raise SingularMatrixError("matrix is singular")
    return tuple(
        tuple(Fraction(x * d, det) for x, (_, d) in zip(row[n:], rows)) for row in work
    )


def solve(m, rhs) -> tuple[Fraction, ...]:
    """Solve m x = rhs for square invertible m."""
    return mat_vec(invert(m), rhs)


def is_psd(m) -> bool:
    """Exact positive-semidefiniteness test for a symmetric rational matrix.

    Symmetric Gaussian elimination pivoting on nonzero diagonal entries, run
    on the integer matrix L*m for L the lcm of all denominators.  The matrix
    is PSD iff no pivot is ever negative and, once no nonzero diagonal entry
    remains, the residual is entirely zero (a symmetric PSD matrix with a
    zero diagonal entry has no off-diagonal coupling there).  Each step
    keeps d times the Schur complement, d the positive pivot, divided by
    its gcd: positive scalings keep every sign.
    """
    rows = _int_rows(m)
    den = lcm(*(k for _, k in rows))
    a = [[x * (den // k) for x in row] for row, k in rows]
    while a:
        piv = next((i for i, row in enumerate(a) if row[i]), None)
        if piv is None:
            return not any(map(any, a))
        top = a.pop(piv)
        d = top.pop(piv)
        if d < 0:
            return False
        col = [row.pop(piv) for row in a]
        a = [[d * x - f * y for x, y in zip(row, top)] for row, f in zip(a, col)]
        g = gcd(*(x for row in a for x in row)) or 1
        a = [[x // g for x in row] for row in a]
    return True


def int_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(m)
    a = [[int(x) for x in row] for row in m]
    r, sign, last = _bareiss(a, n)
    return sign * last if r == n else 0

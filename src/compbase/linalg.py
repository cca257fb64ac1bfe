"""Exact linear algebra over the integers.

A rational matrix is stored as integer rows over one positive denominator:
the pair (rows, den) stands for rows / den, and `lowest_terms` puts it in
the canonical form that `elements.SymMat` and `models.Endomorphism` keep,
so equal matrices are equal tuples.  The kernels here take and return
integer matrices only (immutable tuples of tuples of ints, vectors flat
tuples); a caller divides by its denominators, which scale every kernel
out exactly.  Nothing in this module (or anywhere else in the package)
touches floats.

The fast paths keep every result: `combine` adds or subtracts two matrices
over one denominator row by row with no lcm, `lowest_terms` and the
elimination behind `is_psd` take one gcd over the flattened rows, and that
elimination divides a Schur complement only by a gcd above 1.

`mat_mul`, `is_psd` and `invert` pick a closed form by the input's shape:
on square 2x2 and 3x3 input (the matrices of m3 and m4 and the frames of
their maps, the vectorized maps of m3, the maps of Z^2 and Z^3 lattice
models, the Cayley frames) they unroll the product, test the principal
minors and return the adjugate with the determinant, the same ints and
bools as the generic paths.  The generic paths (`_mul_by_columns`,
`_psd_by_elimination`, `_invert_by_elimination`) stay: they take every
other size (the vectorized maps of m4 where one is built, such as a
commutant's projector, the 4x4 frames of a dim-4 matrix model, Z^4
lattice seeds) and the tests hold each closed form to them.  `is_psd`
reads only the upper triangle of a 2x2 or 3x3 matrix, so its input must
be symmetric.  `invert` and `int_det` refuse a matrix that is not square
with ValueError at every size, and `int_det` refuses entries that are no
ints with TypeError.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def zeros(r: int, c: int) -> tuple[tuple[int, ...], ...]:
    return ((0,) * c,) * r


def transpose(m) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*m)) if m else ()


def lowest_terms(rows, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """rows / den (int tuples) with den > 0 sharing no factor with all the entries."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = gcd(den, *chain.from_iterable(rows))
    if den < 0:
        g = -g
    if g == 1:
        return rows, den
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def combine(a, da: int, b, db: int, k: int = 1):
    """a/da + k * b/db as integer rows over lcm(da, db), not reduced.

    A sum or difference over one denominator adds the rows entry by entry.
    """
    if da == db and (k == 1 or k == -1):
        op = add if k == 1 else sub
        return tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a, b)), da
    den = lcm(da, db)
    fa, fb = den // da, k * (den // db)
    rows = tuple(tuple(fa * x + fb * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    return rows, den


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    """The product a b, unrolled when a and b are both 2x2 or both 3x3."""
    n = len(a)
    if n == 2 and len(a[0]) == 2 and len(b) == 2 and len(b[0]) == 2:
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        return (
            (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
        )
    if n == 3 and len(a[0]) == 3 and len(b) == 3 and len(b[0]) == 3:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
        (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
        return (
            (
                a00 * b00 + a01 * b10 + a02 * b20,
                a00 * b01 + a01 * b11 + a02 * b21,
                a00 * b02 + a01 * b12 + a02 * b22,
            ),
            (
                a10 * b00 + a11 * b10 + a12 * b20,
                a10 * b01 + a11 * b11 + a12 * b21,
                a10 * b02 + a11 * b12 + a12 * b22,
            ),
            (
                a20 * b00 + a21 * b10 + a22 * b20,
                a20 * b01 + a21 * b11 + a22 * b21,
                a20 * b02 + a21 * b12 + a22 * b22,
            ),
        )
    return _mul_by_columns(a, b)


def _mul_by_columns(a, b) -> tuple[tuple[int, ...], ...]:
    """The product a b of any shapes, each entry a row times a column."""
    cols = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(m, v) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in m)


def _bareiss(a, ncols: int, jordan: bool = False) -> tuple[int, int, int]:
    """Elimination of the integer rows `a` in place, fraction-free (Bareiss 1968).

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
    """Rank over Q, by fraction-free elimination."""
    work = [list(row) for row in m]
    return _bareiss(work, len(work[0]) if work else 0)[0]


def nullspace(m, ncols: int) -> list[tuple[int, ...]]:
    """A basis of {x in Q^ncols : row . x = 0 for every row of m}, as
    primitive integer vectors, one per free column in increasing order.

    Integer Gauss-Jordan leaves the last pivot p on every pivot row's
    pivot column and zeros in the others, so a pivot row reads
    p x_c + sum over free f of a_f x_f = 0: with x_f = p at one free f and
    0 at the others, x_c = -a_f.  Each vector is scaled to a positive free
    coordinate.
    """
    work = [list(row) for row in m]
    r, _, p = _bareiss(work, ncols, jordan=True)
    pivots = [next(c for c, x in enumerate(row) if x) for row in work[:r]]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [0] * ncols
        x[f] = p
        for row, c in zip(work, pivots):
            x[c] = -row[f]
        g = gcd(*x) if p > 0 else -gcd(*x)
        basis.append(tuple(v // g for v in x))
    return basis


class SingularMatrixError(ValueError):
    pass


def _require_square(m) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return n


def invert(m) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The adjugate and the determinant of a square integer matrix.

    m^-1 = adj / det.  A 2x2 or 3x3 matrix takes the cofactors in closed
    form; any other size goes through `_invert_by_elimination`.
    """
    n = _require_square(m)
    if n == 2:
        (a, b), (c, d) = m
        det = a * d - b * c
        if not det:
            raise SingularMatrixError("matrix is singular")
        return ((d, -b), (-c, a)), det
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        c00, c01, c02 = e * i - f * h, f * g - d * i, d * h - e * g
        det = a * c00 + b * c01 + c * c02
        if not det:
            raise SingularMatrixError("matrix is singular")
        return (
            (c00, c * h - b * i, b * f - c * e),
            (c01, a * i - c * g, c * d - a * f),
            (c02, b * g - a * h, a * e - b * d),
        ), det
    return _invert_by_elimination(m)


def _invert_by_elimination(m) -> tuple[tuple[tuple[int, ...], ...], int]:
    """invert of a square matrix of any size.

    Integer Gauss-Jordan takes [m | I] to [p*I | p*m^-1] with
    p = sign * det, the last pivot.
    """
    n = len(m)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    r, sign, last = _bareiss(work, n, jordan=True)
    if r < n:
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(sign * x for x in row[n:]) for row in work), sign * last


def is_psd(m) -> bool:
    """Exact positive-semidefiniteness test for a symmetric integer matrix.

    A symmetric matrix is PSD iff every principal minor is >= 0: a 2x2 or
    3x3 matrix is tested so, reading only its upper triangle (a matrix
    that is not symmetric gets a meaningless answer).  Any other size goes
    through `_psd_by_elimination`.  Positive scalings keep every sign, so a
    rational matrix is tested through its numerators over a positive
    denominator.
    """
    n = len(m)
    if n == 2:
        (a, b), (_, d) = m
        return a >= 0 and d >= 0 and a * d >= b * b
    if n == 3:
        (a, b, c), (_, d, e), (_, _, f) = m
        if a < 0 or d < 0 or f < 0:
            return False
        df = d * f - e * e
        if df < 0 or a * f < c * c or a * d < b * b:
            return False
        return a * df - b * (b * f - c * e) + c * (b * e - c * d) >= 0
    return _psd_by_elimination(m)


def _psd_by_elimination(m) -> bool:
    """is_psd of a symmetric matrix of any size.

    Symmetric Gaussian elimination pivoting on nonzero diagonal entries.
    The matrix is PSD iff no pivot is ever negative and, once no nonzero
    diagonal entry remains, the residual is entirely zero (a symmetric PSD
    matrix with a zero diagonal entry has no off-diagonal coupling there).
    Each step keeps d times the Schur complement, d the positive pivot,
    divided by its gcd when that is above 1.
    """
    a = [list(row) for row in m]
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
        g = gcd(*chain.from_iterable(a))
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return True


def int_det(m) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination.  Entries that are no ints raise TypeError."""
    n = _require_square(m)
    if not all(isinstance(x, int) for row in m for x in row):
        raise TypeError("int_det takes integer entries only")
    a = [list(row) for row in m]
    r, sign, last = _bareiss(a, n)
    return sign * last if r == n else 0

"""Exact linear algebra against independent oracles."""

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from compbase import linalg

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


def over_one_den(rows):
    """Rational rows as (integer rows, the lcm of their denominators)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    den = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in rows), den


def sym_rows(n, draw_entries):
    """Symmetrize an n x n list of drawn entries."""
    rows = [[draw_entries[i * n + j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
    return rows


def det_by_permutations(m):
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= m[i][perm[i]]
        total += sign * term
    return total


def psd_by_principal_minors(m):
    """Sylvester for the PSD cone: every principal minor is nonnegative."""
    n = len(m)
    for r in range(1, n + 1):
        for subset in permutations(range(n), r):
            idx = sorted(set(subset))
            if len(idx) != r:
                continue
            minor = [[m[i][j] for j in idx] for i in idx]
            if det_by_permutations(minor) < 0:
                return False
    return True


@given(st.lists(rationals, min_size=9, max_size=9))
@settings(max_examples=150, deadline=None)
def test_is_psd_matches_minor_oracle_dim3(entries):
    m = sym_rows(3, entries)
    assert linalg.is_psd(over_one_den(m)[0]) == psd_by_principal_minors(m)


@given(st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_is_psd_matches_minor_oracle_dim2(entries):
    m = sym_rows(2, entries)
    assert linalg.is_psd(over_one_den(m)[0]) == psd_by_principal_minors(m)


@given(st.lists(rationals, min_size=9, max_size=9))
@settings(max_examples=100, deadline=None)
def test_gram_matrices_are_psd(entries):
    a, _ = over_one_den([entries[0:3], entries[3:6], entries[6:9]])
    gram = linalg.mat_mul(linalg.transpose(a), a)
    assert linalg.is_psd(gram)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=9, max_size=9))
@settings(max_examples=150, deadline=None)
def test_int_det_matches_permutation_expansion(entries):
    m = [entries[0:3], entries[3:6], entries[6:9]]
    assert linalg.int_det(m) == det_by_permutations(m)


@given(st.lists(rationals, min_size=9, max_size=9))
@settings(max_examples=100, deadline=None)
def test_rank_bounds_and_invert_roundtrip(entries):
    m, _ = over_one_den([entries[0:3], entries[3:6], entries[6:9]])
    r = linalg.rank(m)
    assert 0 <= r <= 3
    if r == 3:
        adj, det = linalg.invert(m)
        assert linalg.mat_mul(m, adj) == tuple(
            tuple(det * x for x in row) for row in linalg.identity(3)
        )


def test_rank_of_rank_one_matrix():
    assert linalg.rank(((1, 2), (2, 4))) == 1


def test_solve_recovers_solution():
    """m x = rhs solved through the adjugate: x = adj(m) rhs / det(m)."""
    m = ((2, 1), (1, 3))
    x = (3, -4)  # (1/2, -2/3) over 6
    rhs = linalg.mat_vec(m, x)
    adj, det = linalg.invert(m)
    assert det == 5
    assert linalg.mat_vec(adj, rhs) == tuple(det * v for v in x)


def test_psd_edge_cases():
    assert linalg.is_psd(linalg.zeros(3, 3))
    assert linalg.is_psd(linalg.identity(4))
    assert not linalg.is_psd(((0, 1), (1, 0)))
    # Semidefinite but singular: the rank-one projection direction (1, 1),
    # (1/2, 1/2; 1/2, 1/2) over its denominator 2.
    assert linalg.is_psd(((1, 1), (1, 1)))


# Kernels against sympy.  Matrices are drawn with mixed int and Fraction
# entries, zero rows, and rows that repeat a multiple of the one above, so
# singular and rank-deficient cases turn up often; the kernels see their
# integer numerators over one denominator, which is how SymMat and
# Endomorphism store them.

DIMS = st.sampled_from([1, 2, 3, 4, 6])
entries = st.one_of(st.integers(min_value=-6, max_value=6), rationals)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    nrows = nrows or draw(DIMS)
    ncols = ncols or draw(DIMS)
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(["entries"] * 4 + ["zero", "multiple"]))
        if kind == "zero":
            rows.append(tuple(draw(st.sampled_from([0, Fraction(0)])) for _ in range(ncols)))
        elif kind == "multiple" and rows:
            k = draw(rationals)
            rows.append(tuple(k * x for x in rows[-1]))
        else:
            rows.append(tuple(draw(entries) for _ in range(ncols)))
    return over_one_den(rows)[0]


def to_sympy(m):
    return sympy.Matrix([[sympy.Integer(x) for x in row] for row in m])


def from_sympy(m):
    return tuple(tuple(int(x) for x in m.row(i)) for i in range(m.rows))


def assert_int_matrix(got, expected):
    assert got == expected
    assert all(type(x) is int for row in got for x in row)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_mat_mul_matches_sympy(data):
    a = data.draw(matrices())
    b = data.draw(matrices(nrows=len(a[0])))
    assert_int_matrix(linalg.mat_mul(a, b), from_sympy(to_sympy(a) * to_sympy(b)))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_mat_vec_matches_sympy(data):
    m = data.draw(matrices())
    (v,) = data.draw(matrices(nrows=1, ncols=len(m[0])))
    expected = from_sympy(to_sympy(m) * to_sympy([v]).T)
    assert_int_matrix((linalg.mat_vec(m, v),), (tuple(row[0] for row in expected),))


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_sympy(m):
    assert linalg.rank(m) == to_sympy(m).rank()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_invert_matches_sympy(data):
    """invert returns the adjugate and the determinant."""
    n = data.draw(DIMS)
    m = data.draw(matrices(nrows=n, ncols=n))
    sm = to_sympy(m)
    if sm.det() == 0:
        with pytest.raises(linalg.SingularMatrixError):
            linalg.invert(m)
    else:
        adj, det = linalg.invert(m)
        assert det == sm.det() and type(det) is int
        assert_int_matrix(adj, from_sympy(sm.adjugate()))


@given(matrices(ncols=4), rationals)
@settings(max_examples=150, deadline=None)
def test_is_psd_matches_minor_oracle_dim4(b, shift):
    """Gram matrices B^T B shifted by a multiple of I: PSD or not near the edge."""
    gram = linalg.mat_mul(linalg.transpose(b), b)
    m = [[x + shift * (i == j) for j, x in enumerate(row)] for i, row in enumerate(gram)]
    assert linalg.is_psd(over_one_den(m)[0]) == psd_by_principal_minors(m)


def as_rationals(rows, den):
    return tuple(tuple(sympy.Rational(x, den) for x in row) for row in rows)


@given(st.data(), st.integers(min_value=-40, max_value=40).filter(bool), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_combine_and_lowest_terms_match_sympy(data, da, k):
    """a/da + k*b/db over one denominator, then put in lowest terms."""
    a = data.draw(matrices())
    b = data.draw(matrices(nrows=len(a), ncols=len(a[0])))
    db = data.draw(st.integers(min_value=1, max_value=40))
    rows, den = linalg.combine(a, abs(da), b, db, k)
    expected = to_sympy(a) / abs(da) + k * to_sympy(b) / db
    assert as_rationals(rows, den) == tuple(map(tuple, expected.tolist()))

    low, low_den = linalg.lowest_terms(rows, -den if da < 0 else den)
    sign = -1 if da < 0 else 1
    assert as_rationals(low, low_den) == as_rationals(rows, sign * den)
    assert low_den > 0
    assert gcd(low_den, *(x for row in low for x in row)) == 1
    assert linalg.lowest_terms(low, low_den) == (low, low_den)


# Shape and type guards.  invert and int_det test squareness once, before
# they pick a closed form by size, so every size fails the same way.

NOT_SQUARE = [
    ((1, 2),),
    ((1, 2, 3), (4, 5, 6)),
    ((1, 2), (3, 4), (5, 6)),
    ((1, 2), (3,)),
    ((1, 2, 3), (4, 5, 6), (7, 8)),
    ((1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 1, 1)),
    ((1, 2, 3, 4), (5, 6, 7, 8), (1, 1, 1, 1)),
]


@pytest.mark.parametrize("kernel", [linalg.invert, linalg.int_det])
@pytest.mark.parametrize("m", NOT_SQUARE)
def test_invert_and_int_det_refuse_a_matrix_that_is_not_square(kernel, m):
    with pytest.raises(ValueError, match="not square") as raised:
        kernel(m)
    assert not isinstance(raised.value, linalg.SingularMatrixError)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("odd", [Fraction(1, 2), 0.5, Fraction(2), 2.0])
def test_int_det_refuses_entries_that_are_no_ints(n, odd):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    m[0][0] = odd
    with pytest.raises(TypeError):
        linalg.int_det(m)


@pytest.mark.parametrize("rows,inner,cols", [
    (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 2), (3, 2, 3), (2, 3, 3),
    (3, 3, 4), (4, 3, 3), (1, 2, 2), (2, 2, 1), (2, 2, 2), (3, 3, 3),
])
def test_mat_mul_takes_a_closed_form_only_when_all_four_sizes_agree(rows, inner, cols):
    a = tuple(tuple(i * inner + j + 1 for j in range(inner)) for i in range(rows))
    b = tuple(tuple(2 * i - j for j in range(cols)) for i in range(inner))
    got = linalg.mat_mul(a, b)
    assert got == from_sympy(to_sympy(a) * to_sympy(b))
    assert len(got) == rows and all(len(row) == cols for row in got)


@pytest.mark.parametrize("a,b,product", [
    ((), (), ()),
    ((), ((1, 2), (3, 4)), ()),
    (((), ()), (), ((), ())),
    (((), (), ()), (), ((), (), ())),
    (((1, 2), (3, 4)), ((), ()), ((), ())),
    (((1, 2, 3),) * 3, ((),) * 3, ((),) * 3),
])
def test_mat_mul_passes_empty_input_through(a, b, product):
    assert linalg.mat_mul(a, b) == product

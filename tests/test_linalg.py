"""Exact linear algebra against independent oracles."""

from fractions import Fraction
from itertools import permutations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from compbase import linalg

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


def sym_rows(n, draw_entries):
    """Symmetrize an n x n list of drawn entries."""
    rows = [[draw_entries[i * n + j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
    return linalg.mat(rows)


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
    assert linalg.is_psd(m) == psd_by_principal_minors(m)


@given(st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_is_psd_matches_minor_oracle_dim2(entries):
    m = sym_rows(2, entries)
    assert linalg.is_psd(m) == psd_by_principal_minors(m)


@given(st.lists(rationals, min_size=9, max_size=9))
@settings(max_examples=100, deadline=None)
def test_gram_matrices_are_psd(entries):
    a = linalg.mat([entries[0:3], entries[3:6], entries[6:9]])
    gram = linalg.mat_mul(linalg.transpose(a), a)
    assert linalg.is_psd(gram)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=9, max_size=9))
@settings(max_examples=150, deadline=None)
def test_int_det_matches_permutation_expansion(entries):
    m = [entries[0:3], entries[3:6], entries[6:9]]
    expected = det_by_permutations(linalg.mat(m))
    assert linalg.int_det(m) == expected


@given(st.lists(rationals, min_size=9, max_size=9))
@settings(max_examples=100, deadline=None)
def test_rank_bounds_and_invert_roundtrip(entries):
    m = linalg.mat([entries[0:3], entries[3:6], entries[6:9]])
    r = linalg.rank(m)
    assert 0 <= r <= 3
    if r == 3:
        inv = linalg.invert(m)
        assert linalg.mat_mul(m, inv) == linalg.identity(3)


def test_rank_of_rank_one_matrix():
    m = linalg.mat([[1, 2], [2, 4]])
    assert linalg.rank(m) == 1


def test_solve_recovers_solution():
    m = linalg.mat([[2, 1], [1, 3]])
    x = linalg.vec([Fraction(1, 2), Fraction(-2, 3)])
    rhs = linalg.mat_vec(m, x)
    assert linalg.solve(m, rhs) == x


def test_psd_edge_cases():
    assert linalg.is_psd(linalg.zeros(3, 3))
    assert linalg.is_psd(linalg.identity(4))
    assert not linalg.is_psd(linalg.mat([[0, 1], [1, 0]]))
    # Semidefinite but singular: the rank-one projection direction (1, 1).
    assert linalg.is_psd(linalg.mat([["1/2", "1/2"], ["1/2", "1/2"]]))


# Kernels against sympy: mixed int and Fraction entries, zero rows, and rows
# that repeat a multiple of the one above, so singular and rank-deficient
# cases turn up often.

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
    return tuple(rows)


def to_sympy(m):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]
    )


def from_sympy(m):
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows)
    )


def assert_fraction_matrix(got, expected):
    assert got == expected
    assert all(type(x) is Fraction for row in got for x in row)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_mat_mul_matches_sympy(data):
    a = data.draw(matrices())
    b = data.draw(matrices(nrows=len(a[0])))
    assert_fraction_matrix(linalg.mat_mul(a, b), from_sympy(to_sympy(a) * to_sympy(b)))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_mat_vec_matches_sympy(data):
    m = data.draw(matrices())
    (v,) = data.draw(matrices(nrows=1, ncols=len(m[0])))
    expected = from_sympy(to_sympy(m) * to_sympy([v]).T)
    assert_fraction_matrix((linalg.mat_vec(m, v),), (tuple(row[0] for row in expected),))


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_sympy(m):
    assert linalg.rank(m) == to_sympy(m).rank()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_invert_matches_sympy(data):
    n = data.draw(DIMS)
    m = data.draw(matrices(nrows=n, ncols=n))
    sm = to_sympy(m)
    if sm.det() == 0:
        with pytest.raises(linalg.SingularMatrixError):
            linalg.invert(m)
    else:
        assert_fraction_matrix(linalg.invert(m), from_sympy(sm.inv()))


@given(matrices(ncols=4), rationals)
@settings(max_examples=150, deadline=None)
def test_is_psd_matches_minor_oracle_dim4(b, shift):
    """Gram matrices B^T B shifted by a multiple of I: PSD or not near the edge."""
    gram = linalg.mat_mul(linalg.transpose(b), b)
    m = linalg.mat_add(gram, linalg.mat_scale(shift, linalg.identity(4)))
    assert linalg.is_psd(m) == psd_by_principal_minors(m)

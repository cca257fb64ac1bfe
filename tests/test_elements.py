"""Vec and SymMat carriers: arithmetic, invariants, conjugation."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from compbase import MatrixModel, SymMat, Vec, conjugate, conjugation_endo, identity_endo
from compbase.elements import parse_integer

coords = st.tuples(*[st.integers(-20, 20)] * 3)


@given(coords, coords)
def test_vec_addition_is_componentwise(a, b):
    assert (Vec(a) + Vec(b)).coords == tuple(x + y for x, y in zip(a, b))


@given(coords, coords)
def test_vec_subtraction_inverts_addition(a, b):
    va, vb = Vec(a), Vec(b)
    assert (va + vb) - vb == va
    assert va - va == Vec.zero(3)


@given(coords, st.integers(-5, 5))
def test_vec_scaling(a, k):
    assert Vec(a).scale(k).coords == tuple(k * x for x in a)


def test_vec_rejects_non_int_coords():
    with pytest.raises(TypeError):
        Vec((1, Fraction(1, 2)))


def test_vec_shape_mismatch():
    with pytest.raises(ValueError):
        Vec((1, 2)) + Vec((1, 2, 3))


def test_vec_checks_input_but_trusts_its_own_arithmetic():
    # the public constructor and the operands are checked ...
    with pytest.raises(TypeError):
        Vec((1, "2"))
    with pytest.raises(ValueError):
        Vec((1, 2)) - Vec((1, 2, 3))
    for other in ((1, 2), SymMat.identity(2), 1):
        with pytest.raises(ValueError):
            Vec((1, 2)) + other
        with pytest.raises(ValueError):
            Vec((1, 2)) - other
    with pytest.raises(TypeError):
        Vec((1, 2)).scale(Fraction(1, 2))
    # ... and the results are ordinary Vecs, equal and hashed as checked ones
    results = [Vec((1, 2)) + Vec((2, 1)), Vec((4, 4)) - Vec((1, 1)), -Vec((-3, -3)),
               Vec((1, 1)).scale(3)]
    assert set(results) == {Vec((3, 3))}
    assert all(type(r) is Vec and r.coords == (3, 3) for r in results)


@pytest.mark.parametrize("text", ["1_000", "\uff11", "\u0663", "1.0", "1/2", "", "+"])
def test_parse_integer_is_ascii_digits_only(text):
    with pytest.raises(ValueError):
        parse_integer(text)


def test_parse_integer_reads_signed_ascii_digits():
    assert [parse_integer(t) for t in ("0", "-7", "+12", "007")] == [0, -7, 12, 7]


def test_vec_zero_predicate():
    assert Vec.zero(4).is_zero()
    assert not Vec((0, 0, 1)).is_zero()


def test_symmat_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymMat.from_rows([[1, 2], [3, 1]])


def test_symmat_rejects_nonsquare():
    with pytest.raises(ValueError):
        SymMat.from_rows([[1, 0, 0], [0, 1, 0]])


def test_symmat_arithmetic_stays_symmetric():
    a = SymMat.from_rows([[1, "1/2"], ["1/2", 3]])
    b = SymMat.from_rows([[0, 2], [2, -1]])
    s = a + b
    assert s.rows == ((Fraction(1), Fraction(5, 2)), (Fraction(5, 2), Fraction(2)))
    assert (s - b) == a
    assert a.scale(Fraction(2, 3)).rows[0][1] == Fraction(1, 3)
    assert (-a + a).is_zero()


def test_symmat_shape_mismatch():
    with pytest.raises(ValueError):
        SymMat.identity(2) + SymMat.identity(3)


def test_conjugate_by_coordinate_projection():
    p = SymMat.from_rows([[1, 0], [0, 0]])
    g = SymMat.from_rows([[2, 1], [1, 3]])
    assert conjugate(p, g) == SymMat.from_rows([[2, 0], [0, 0]])


def test_conjugate_degenerate_sandwiches():
    g = SymMat.from_rows([[2, 1], [1, 3]])
    assert conjugate(SymMat.identity(2), g) == g
    assert conjugate(SymMat.zero(2), g).is_zero()


def test_conjugate_by_nontrivial_projection():
    # Rank-one projection onto the diagonal direction (1, 1)/sqrt(2).
    h = SymMat.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    g = SymMat.from_rows([[1, 0], [0, 3]])
    out = conjugate(h, g)
    assert out == SymMat.from_rows([[1, 1], [1, 1]])


def test_sort_keys_are_total_and_stable():
    vs = [Vec((1, 0)), Vec((0, 1)), Vec((0, 0))]
    assert sorted(vs, key=lambda v: v.sort_key())[0] == Vec((0, 0))
    ms = [SymMat.identity(2), SymMat.zero(2)]
    assert sorted(ms, key=lambda m: m.sort_key())[0] == SymMat.zero(2)


# One matrix, one representation: integer rows over one denominator in
# lowest terms, whichever route built it.

small = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def sym_fractions(draw, n=None):
    n = n or draw(st.integers(1, 3))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(small)
    return tuple(map(tuple, rows))


def frac_mul(a, b):
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b))
        for row in a
    )


def assert_same(x, y):
    assert x == y
    assert hash(x) == hash(y)
    assert (x.num, x.den) == (y.num, y.den)
    assert x.den > 0 and gcd(x.den, *(v for row in x.num for v in row)) == 1
    assert all(type(v) is int for row in x.num for v in row)


@given(sym_fractions())
def test_from_rows_round_trips_exactly(rows):
    m = SymMat.from_rows(rows)
    assert m.rows == rows
    assert all(type(x) is Fraction for row in m.rows for x in row)
    assert_same(m, SymMat.from_rows([[str(x) for x in row] for row in rows]))


@given(st.data(), st.integers(1, 3), st.fractions(min_value=-5, max_value=5).filter(bool))
@settings(max_examples=60, deadline=None)
def test_every_route_gives_one_representation(data, n, k):
    rows = data.draw(sym_fractions(n))
    part = data.draw(sym_fractions(n))
    m = SymMat.from_rows(rows)
    rest = tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(rows, part))
    assert_same(SymMat.from_rows(part) + SymMat.from_rows(rest), m)
    assert_same(SymMat.from_rows(rows) - SymMat.zero(n), m)
    assert_same(m.scale(k).scale(1 / k), m)
    assert_same(-(-m), m)

    model = MatrixModel(n)
    assert_same(conjugate(model.unit, m), m)
    assert_same(identity_endo(model).apply(m), m)
    assert_same(model.devectorize(*model.vectorize(m)), m)

    p = data.draw(sym_fractions(n))
    expected = SymMat.from_rows(frac_mul(frac_mul(p, rows), p))
    assert_same(conjugate(SymMat.from_rows(p), m), expected)
    assert_same(conjugation_endo(model, SymMat.from_rows(p)).apply(m), expected)

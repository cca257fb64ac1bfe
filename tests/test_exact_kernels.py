"""The fast paths of the exact kernels against the code they replace.

Each oracle in tests/conftest.py is a kernel as it was before its fast
path: combine over the lcm of the denominators, lowest_terms and is_psd
with their gcd over a nested generator (is_psd dividing by every gcd),
devectorize by index pairs, the Cayley frame as a product, and computed
maps built through the checking constructor.  The order test on the
numerators of b - a is held to is_psd of the reduced SymMat b - a in
tests/test_matrix_model.py (test_memoized_order_matches_is_psd).
"""

import random

from hypothesis import example, given, settings, strategies as st

from compbase import (
    Endomorphism,
    LatticeConeModel,
    MatrixModel,
    SymMat,
    Vec,
    compose,
    endo_from_int_matrix,
    linalg,
    matrix_model,
)
from compbase.models import conjugation_endo
from conftest import (
    basis_conjugation_endo,
    checked_compose,
    dividing_is_psd,
    lcm_combine,
    nested_lowest_terms,
    pairwise_devectorize,
    product_cayley_orthogonal,
)

entries = st.integers(-30, 30)
dens = st.integers(1, 12)


@st.composite
def int_rows(draw, n=None, symmetric=False):
    n = draw(st.integers(1, 4)) if n is None else n
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return tuple(map(tuple, rows))


@st.composite
def symmats(draw, n):
    return SymMat(draw(int_rows(n, symmetric=True)), draw(dens))


@settings(max_examples=300, deadline=None)
@example((((1, 2), (3, 4)), ((5, 6), (7, 8))), 6, 6, False, -1)
@example((((1,),), ((1,),)), 4, 2, True, 1)
@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(int_rows(n), int_rows(n))),
    dens,
    dens,
    st.booleans(),
    st.sampled_from([1, -1, 3]),
)
def test_combine_matches_the_lcm_sum(pair, da, db, same_den, k):
    a, b = pair
    if same_den:
        db = da
    assert linalg.combine(a, da, b, db, k) == lcm_combine(a, da, b, db, k)


@settings(max_examples=300, deadline=None)
@example(((0, 0), (0, 0)), 5)
@example(((4, -6), (8, 2)), -2)
@given(int_rows(), st.integers(-24, 24).filter(bool))
def test_lowest_terms_matches_the_nested_gcd(rows, den):
    assert linalg.lowest_terms(rows, den) == nested_lowest_terms(rows, den)


@st.composite
def psd_leaning(draw):
    """A symmetric integer matrix: drawn, or the Gram matrix M M^T of a
    drawn M (positive semidefinite), minus a drawn multiple of a unit."""
    m = draw(int_rows())
    if draw(st.booleans()):
        m = linalg.mat_mul(m, linalg.transpose(m))
        shift = draw(st.integers(0, 3))
        m = tuple(tuple(x - shift * (i == j == 0) for j, x in enumerate(row)) for i, row in enumerate(m))
    else:
        m = tuple(tuple(m[min(i, j)][max(i, j)] for j in range(len(m))) for i in range(len(m)))
    return m


@settings(max_examples=400, deadline=None)
@example(((0, 0), (0, 0)))
@example(((2, 2, 2), (2, 2, 2), (2, 2, 2)))
@example(((0, 1), (1, 0)))
@given(psd_leaning())
def test_is_psd_matches_dividing_by_every_gcd(m):
    assert linalg.is_psd(m) == dividing_is_psd(m)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(entries, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2), dens,
)))
def test_devectorize_matches_the_pairwise_fill(case):
    n, v, den = case
    model = MatrixModel(n)
    got = model.devectorize(tuple(v), den)
    assert got == pairwise_devectorize(model, tuple(v), den)
    assert model.devectorize(*model.vectorize(got)) == got


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(symmats(n), symmats(n))))
def test_computed_matrix_maps_equal_the_checked_ones(pair):
    p, q = pair
    model = MatrixModel(p.dim)
    jp, jq = conjugation_endo(model, p), conjugation_endo(model, q)
    checked = basis_conjugation_endo(model, p)
    assert jp == checked and hash(jp) == hash(checked)
    for trusted, oracle in ((compose(jp, jq), checked_compose(jp, jq)),
                            (compose(jq, jp), checked_compose(jq, jp))):
        assert trusted == oracle and hash(trusted) == hash(oracle)
        assert trusted._images is None and oracle._images is None


lattice_maps = st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2)


@settings(max_examples=150, deadline=None)
@given(lattice_maps, lattice_maps)
def test_computed_lattice_maps_share_the_checked_image_table(a_rows, b_rows):
    z = LatticeConeModel(2, ((1, 0), (0, 1)), Vec((2, 3)))
    a, b = endo_from_int_matrix(z, a_rows), endo_from_int_matrix(z, b_rows)
    trusted, oracle = compose(a, b), checked_compose(a, b)
    assert trusted == oracle and hash(trusted) == hash(oracle)
    assert trusted._images is oracle._images
    assert trusted._images is z._tables[(oracle.matrix, oracle.den)]
    g = Vec((1, 2))
    assert trusted.apply(g) == a.apply(b.apply(g))
    assert oracle._images[g.coords] == trusted.apply(g)
    assert Endomorphism(z, trusted.matrix, trusted.den) == trusted


def test_cayley_frame_matches_the_product_and_consumes_the_same_draws():
    for dim in range(1, 6):
        for seed in range(200):
            fast, slow = random.Random(seed), random.Random(seed)
            assert matrix_model.cayley_orthogonal(dim, fast) == product_cayley_orthogonal(dim, slow)
            assert fast.getstate() == slow.getstate()

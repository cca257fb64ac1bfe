"""Matrix maps through their conjugator frames, against the vectorized maps.

A map that conjugation_endo, identity_endo, zero_endo or compose builds is
g -> a g a^T for its frame a; the vectorized matrix the other maps carry
is the oracle (tests/conftest.py: checked_compose, vectorized_apply,
vectorized_equal), over projections, their products of up to three, the
pair a and -a, the zero frame and integer frames that are not symmetric,
at dims 2-4, each map framed and as its bare matrix.
"""

import pickle
import random

from hypothesis import example, given, settings, strategies as st

from compbase import (
    Endomorphism,
    MatrixModel,
    SymMat,
    base_from_projections,
    commutant_substructure,
    compose,
    conjugation_endo,
    endo_equal,
    identity_endo,
    image_substructure,
    matrix_model,
    models,
    zero_endo,
)
from compbase.compression import _conjugator_clauses
from compbase.reporting import jsonable, render_json
from conftest import checked_compose, vectorized_apply, vectorized_equal

# one factor of a map: a projection drawn from a seed, negated or not, the
# zero map, or an integer frame over a denominator, symmetric or not
factors = st.one_of(
    st.tuples(st.just("projection"), st.integers(0, 10**6), st.booleans()),
    st.tuples(st.just("zero")),
    st.tuples(st.just("integer"), st.lists(st.integers(-2, 2), min_size=16, max_size=16),
              st.integers(1, 3)),
)


def _factor(model, factor):
    kind = factor[0]
    if kind == "projection":
        p = matrix_model.draw_projection(model.dim, random.Random(factor[1]))
        return conjugation_endo(model, -p if factor[2] else p)
    if kind == "zero":
        return conjugation_endo(model, model.zero)
    n = model.dim
    rows = tuple(tuple(factor[1][i * n:(i + 1) * n]) for i in range(n))
    return models._framed_endo(model, rows, factor[2])


def _product(model, chosen):
    out = _factor(model, chosen[0])
    for factor in chosen[1:]:
        out = compose(out, _factor(model, factor))
    return out


def _negated(endo):
    """The map of the frame -a: the same map."""
    rows, d = endo._frame
    return models._framed_endo(endo.carrier, tuple(tuple(-x for x in r) for r in rows), d)


def _bare(endo):
    """The map's vectorized matrix, built by the constructor: no frame."""
    return Endomorphism(endo.carrier, endo.matrix, endo.den, endo.conjugator)


def _symmetric(dim, seed):
    """A symmetric matrix with entries of both signs over a denominator up to 4."""
    rng = random.Random(seed)
    upper = {(i, j): rng.randint(-5, 5) for i in range(dim) for j in range(i, dim)}
    rows = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(dim)) for i in range(dim))
    return SymMat(rows, rng.randint(1, 4))


maps = st.lists(factors, min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@example(2, [("zero",)], [("zero",)], "same", 0)
@example(3, [("projection", 1, False)], [("projection", 1, True)], "other", 1)
@example(3, [("projection", 1, False), ("projection", 2, False)], [], "negated", 2)
@example(4, [("integer", [1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, -1, 0, 0, 1], 2)], [], "bare", 3)
@given(st.integers(2, 4), maps, maps, st.sampled_from(["other", "same", "negated", "bare"]),
       st.integers(0, 10**6))
def test_framed_maps_agree_with_their_vectorized_matrices(dim, first, second, relation, seed):
    model = MatrixModel(dim)
    x = _product(model, first)
    y = {"other": lambda: _product(model, second or first), "same": lambda: _product(model, first),
         "negated": lambda: _negated(x), "bare": lambda: _bare(x)}[relation]()
    g = _symmetric(dim, seed)
    for a in (x, _bare(x)):
        assert a.apply(g) == vectorized_apply(a, g)
        for b in (y, _bare(y)):
            composite, oracle = compose(a, b), checked_compose(a, b)
            assert composite == oracle and hash(composite) == hash(oracle)
            assert composite.apply(g) == vectorized_apply(oracle, g)
            equal = endo_equal(model, a, b)
            assert equal == vectorized_equal(model, a, b)
            assert (models.map_key(model, a) == models.map_key(model, b)) == equal
    if relation != "other":
        assert endo_equal(model, x, y)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10**6), maps, maps)
def test_framed_maps_agree_on_substructures(dim, seed, first, second):
    """endo_equal and map_key read on an image and a commutant
    substructure, whose projectors are a frame and a sum of two."""
    model = MatrixModel(dim)
    p = matrix_model.draw_projection(dim, random.Random(seed))
    base = base_from_projections(model, {model.zero, p, model.unit - p, model.unit})
    x, y = _product(model, first), _product(model, second)
    for sub in (image_substructure(base, p), commutant_substructure(base, p)):
        for a in (x, _bare(x), y):
            for b in (y, _bare(y), x):
                equal = endo_equal(sub, a, b)
                assert equal == vectorized_equal(sub, a, b)
                assert (models.map_key(sub, a) == models.map_key(sub, b)) == equal


def test_frames_are_canonical():
    model = MatrixModel(3)
    p = SymMat.from_rows([["1/2", "1/2", 0], ["1/2", "1/2", 0], [0, 0, 0]])
    assert conjugation_endo(model, p)._frame == (((1, 1, 0), (1, 1, 0), (0, 0, 0)), 2)
    assert conjugation_endo(model, -p)._frame == conjugation_endo(model, p)._frame
    assert zero_endo(model)._frame == (((0, 0, 0),) * 3, 1)
    assert identity_endo(model)._frame == (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1)
    # a frame is put in lowest terms before its sign is fixed
    framed = models._framed_endo(model, ((0, -2, 0), (4, 0, 0), (0, 0, 2)), 6)
    assert framed._frame == (((0, 1, 0), (-2, 0, 0), (0, 0, -1)), 3)


def test_frame_of_recovers_conjugations_only():
    """_frame_of finds the frame of a bare conjugation matrix and refuses
    the commutant's projector J_p + J_{u-p}, which is none."""
    model = MatrixModel(3)
    for seed in range(20):
        x = _product(model, [("projection", seed, False), ("projection", seed + 1, False)])
        assert models._frame_of(model, x.matrix, x.den) == x._frame
    p = matrix_model.draw_projection(3, random.Random(0), rank=1)
    base = base_from_projections(model, {model.zero, p, model.unit - p, model.unit})
    projector = commutant_substructure(base, p).projector
    assert projector._frame is None
    assert models._frame_of(model, projector.matrix, projector.den) is False


def test_equality_hash_pickle_and_json_see_the_matrix():
    model = MatrixModel(3)
    p = matrix_model.draw_projection(3, random.Random(1), rank=2)
    q = matrix_model.draw_projection(3, random.Random(2), rank=1)
    jp = conjugation_endo(model, p)
    composite = compose(jp, conjugation_endo(model, q))
    for framed in (jp, composite, identity_endo(model), zero_endo(model)):
        bare = _bare(framed)
        assert framed == bare and hash(framed) == hash(bare)
        assert repr(framed) == repr(bare)
        assert jsonable(framed) == jsonable(bare)
        assert render_json(framed) == render_json(bare)
        back = pickle.loads(pickle.dumps(framed))
        assert back == framed and hash(back) == hash(framed) and back._frame is None
    assert "conjugator" in jsonable(jp)
    assert "conjugator" not in jsonable(composite)
    assert composite.conjugator is None


def test_a_hand_built_map_keeps_its_matrix_and_its_mismatch():
    """A map built by the constructor with a conjugator keeps the matrix it
    is given, so matrix_matches_conjugator still fails when that matrix is
    another conjugation's, and passes when it is its own."""
    model = MatrixModel(2)
    e11 = SymMat.from_rows([[1, 0], [0, 0]])
    e22 = SymMat.from_rows([[0, 0], [0, 1]])
    half = SymMat.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    for p, other in ((e11, e22), (e11, half), (half, model.unit), (model.unit, model.zero)):
        given_matrix = conjugation_endo(model, other).matrix
        endo = Endomorphism(model, given_matrix, conjugation_endo(model, other).den, conjugator=p)
        assert endo._frame is None
        match = _conjugator_clauses(model, endo)[1]
        assert match.name == "matrix_matches_conjugator" and not match.ok
        models.map_key(model, endo)  # recovers the frame of `other`
        assert endo.matrix is given_matrix
        assert not _conjugator_clauses(model, endo)[1].ok
        own = conjugation_endo(model, p)
        assert _conjugator_clauses(model, Endomorphism(model, own.matrix, own.den, p))[1].ok

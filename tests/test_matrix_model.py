"""Seeded samplers: exactness, idempotence, order bounds, determinism."""

import random

from compbase import MatrixModel, linalg, matrix_model


def rngs():
    return random.Random(7), random.Random(7)


def test_cayley_matrices_are_exactly_orthogonal():
    rng = random.Random(1)
    for dim in (2, 3, 4):
        for _ in range(10):
            q, d = matrix_model.cayley_orthogonal(dim, rng)
            assert linalg.mat_mul(linalg.transpose(q), q) == tuple(
                tuple(d * d * x for x in row) for row in linalg.identity(dim)
            )


def test_drawn_projections_are_exact_idempotents():
    rng = random.Random(2)
    model = MatrixModel(3)
    for _ in range(25):
        p = matrix_model.draw_projection(3, rng)
        assert matrix_model.is_projection(p)
        assert model.is_positive(p)
        assert model.leq(p, model.unit)


def test_projection_rank_control():
    rng = random.Random(3)
    for rank in range(4):
        p = matrix_model.draw_projection(3, rng, rank=rank)
        assert linalg.rank(p.num) == rank


def test_commuting_pairs_commute():
    rng = random.Random(4)
    for _ in range(10):
        p, q = matrix_model.draw_projection_pair(3, rng, commuting=True)
        assert linalg.mat_mul(p.num, q.num) == linalg.mat_mul(q.num, p.num)


def test_nested_pairs_are_nested():
    rng = random.Random(5)
    model = MatrixModel(3)
    for _ in range(10):
        p, q = matrix_model.draw_nested_projections(3, rng)
        assert model.leq(q, p)
        # p q = q, on the numerators over p.den * q.den
        assert linalg.mat_mul(p.num, q.num) == tuple(
            tuple(p.den * x for x in row) for row in q.num
        )


def test_effects_lie_in_the_unit_interval():
    rng = random.Random(6)
    model = MatrixModel(2)
    for _ in range(25):
        e = matrix_model.draw_effect(2, rng)
        assert model.is_positive(e)
        assert model.leq(e, model.unit)


def test_positive_and_signed_bounds():
    rng = random.Random(8)
    model = MatrixModel(2)
    h = 3
    for _ in range(10):
        g = matrix_model.draw_positive(2, rng, h)
        assert model.is_positive(g)
        assert model.leq(g, model.unit.scale(h))
        s = matrix_model.draw_signed(2, rng, h)
        assert model.leq(s, model.unit.scale(h))
        assert model.leq(model.unit.scale(-h), s)


def test_sampling_is_seed_deterministic():
    a, b = rngs()
    for _ in range(5):
        assert matrix_model.draw_effect(3, a) == matrix_model.draw_effect(3, b)
        assert matrix_model.draw_projection(3, a) == matrix_model.draw_projection(3, b)
    assert matrix_model.random_effect(2, seed=11) == matrix_model.random_effect(2, seed=11)
    assert matrix_model.random_projection(2, seed=11) == matrix_model.random_projection(2, seed=11)


def test_distinct_seeds_usually_differ():
    assert matrix_model.random_effect(2, seed=1) != matrix_model.random_effect(2, seed=2)

"""Seeded samplers: exactness, idempotence, order bounds, determinism, the
samplers against draw-and-build oracles, and the memoized order test
against is_psd."""

import random
from collections import Counter
from math import lcm

from hypothesis import example, given, settings, strategies as st

from compbase import CheckConfig, MatrixModel, SymMat, linalg, matrix_model, models
from compbase.cli import main
from conftest import MODELS_DIR, draw_positive, draw_signed, product_cayley_orthogonal


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
        g = draw_positive(2, rng, h)
        assert model.is_positive(g)
        assert model.leq(g, model.unit.scale(h))
        s = draw_signed(2, rng, h)
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


# ---------------------------------------------------------------------------
# samplers against the draw-and-build-in-one-pass oracles


def oracle_draw_effect(dim, rng):
    q = product_cayley_orthogonal(dim, rng)
    ratios = []
    for _ in range(dim):
        den = rng.randint(1, matrix_model.DEFAULT_BOUND)
        ratios.append((rng.randint(0, den), den))
    den = lcm(*(d for _, d in ratios))
    return matrix_model.frame_sandwich(q, [n * (den // d) for n, d in ratios], den)


SAMPLERS = {
    "cayley": (matrix_model.cayley_orthogonal, product_cayley_orthogonal),
    "effect": (matrix_model.draw_effect, oracle_draw_effect),
}
SAMPLER_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(sorted(SAMPLERS)), st.integers(1, 4)),
        st.just(("reopen", 0)),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=40, deadline=None)
@example(seed=5, bound=matrix_model.DEFAULT_BOUND,
         ops=[("effect", 3), ("cayley", 3), ("reopen", 0),
              ("effect", 3), ("cayley", 3), ("reopen", 0), ("effect", 3)])
@given(
    seed=st.integers(0, 2**32),
    bound=st.sampled_from([1, 2, matrix_model.DEFAULT_BOUND]),
    ops=SAMPLER_OPS,
)
def test_memoized_samplers_match_oracle_and_stream(seed, bound, ops):
    # "reopen" restarts both streams, as every clause that opens a tagged
    # stream again does, so later draws repeat earlier ones; small bounds
    # make distinct draws share their generators
    default = matrix_model.DEFAULT_BOUND
    matrix_model.DEFAULT_BOUND = bound
    try:
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for name, dim in ops:
            if name == "reopen":
                rng, oracle_rng = random.Random(seed), random.Random(seed)
            else:
                sampler, oracle = SAMPLERS[name]
                assert sampler(dim, rng) == oracle(dim, oracle_rng)
                assert rng.getstate() == oracle_rng.getstate()
    finally:
        matrix_model.DEFAULT_BOUND = default


# ---------------------------------------------------------------------------
# the memoized matrix order test


@st.composite
def sym_mats(draw, dim):
    upper = {(i, j): draw(st.integers(-4, 4)) for i in range(dim) for j in range(i, dim)}
    num = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(dim)) for i in range(dim))
    return SymMat(num, draw(st.integers(1, 6)))


@st.composite
def order_pairs(draw):
    dim = draw(st.integers(1, 3))
    a = draw(sym_mats(dim))
    how = draw(st.sampled_from(["equal", "above", "below", "any"]))
    if how == "equal":
        return a, SymMat(a.num, a.den)
    effect = matrix_model.draw_effect(dim, random.Random(draw(st.integers(0, 2**16))))
    if how == "above":
        return a, a + effect
    if how == "below":
        return a, a - effect
    return a, draw(sym_mats(dim))


def _diag(*entries):
    return SymMat(tuple(tuple(x if i == j else 0 for j in range(len(entries)))
                        for i, x in enumerate(entries)))


@settings(max_examples=200, deadline=None)
@example(pair=(_diag(1, 0), _diag(0, 1)))
@example(pair=(_diag(1, 2), _diag(1, 2)))
@given(pair=order_pairs())
def test_memoized_order_matches_is_psd(pair):
    a, b = pair
    model = MatrixModel(a.dim)
    want = linalg.is_psd((b - a).num)
    assert models._matrix_leq.__wrapped__(a, b) is want  # the body, on the numerators of b - a
    assert model.leq(a, b) is want
    hits = models._matrix_leq.cache_info().hits
    assert model.leq(a, b) is want
    assert models._matrix_leq.cache_info().hits == hits + 1


def test_report_m4_runs_is_psd_once_per_distinct_order_question(monkeypatch, capsys):
    """report m4 --samples 8 asks 402 distinct order questions (a <= b, or
    0 <= g for is_positive), fewer than the ORDER_CAP entries the memo
    keeps, so none is evicted and is_psd runs once for each."""
    models._matrix_leq.cache_clear()
    asked = set()
    psd = []
    memo, real_psd = models._matrix_leq, linalg.is_psd

    def leq(a, b):
        asked.add((a, b))
        return memo(a, b)

    def is_psd(m):
        psd.append(m)
        return real_psd(m)

    monkeypatch.setattr(models, "_matrix_leq", leq)
    monkeypatch.setattr(linalg, "is_psd", is_psd)
    assert main(["report", str(MODELS_DIR / "m4.json"), "--samples", "8"]) == 0
    capsys.readouterr()
    assert len(asked) < models.ORDER_CAP
    assert len(psd) == len(asked)


def test_order_memo_cuts_psd_tests_not_draws(monkeypatch, capsys):
    """theorems m4 --samples 8 --seed 1: same draws and streams, fewer PSD tests.

    Before the order memo it ran is_psd 14,528 times; the memo leaves
    draw_effect and CheckConfig.rng as they are: no effect is drawn (the
    unital-group axioms are decided) and 7 streams are opened, all by the
    base of all projections (the declared base opens none).
    """
    models._matrix_leq.cache_clear()
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(linalg, "is_psd", counting("is_psd", linalg.is_psd))
    monkeypatch.setattr(matrix_model, "draw_effect", counting("draw_effect", matrix_model.draw_effect))
    monkeypatch.setattr(CheckConfig, "rng", counting("rng", CheckConfig.rng))
    argv = ["theorems", str(MODELS_DIR / "m4.json"), "--samples", "8", "--seed", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    assert counts["draw_effect"] == 0
    assert counts["rng"] == 7
    assert counts["is_psd"] <= 7000

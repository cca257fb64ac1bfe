"""The law helper and the Clause verdict: status, checked counts, witnesses,
lazy universes, and the single checks that return one clause."""

import random

import pytest

from compbase import (
    Clause,
    Vec,
    commutant_absorption_check,
    endo_from_int_matrix,
    is_compression,
    is_direct,
    is_normal_subalgebra,
    is_sub_effect_algebra,
    kernel_complement_check,
    load_model,
)
from compbase.reporting import CERTIFIED, FAIL, PASS, Sample, law
from conftest import FIXTURES_DIR


def test_exhaustive_universe_passes():
    clause = law("positive", (1, 2, 3), lambda x: x > 0, note="n")
    assert (clause.name, clause.status, clause.checked) == ("positive", PASS, 3)
    assert clause.witness is None and clause.note == "n" and clause.ok


def test_sampled_universe_is_certified():
    """A Sample is the one sampled universe; a generator is exhaustive."""
    rng = random.Random(1)
    assert law("unit", Sample(5, rng.random), lambda x: 0 <= x < 1).status == CERTIFIED
    gen = (rng.random() for _ in range(4))
    clause = law("unit", gen, lambda x: 0 <= x < 1)
    assert (clause.status, clause.checked) == (PASS, 4)


def test_exact_overrides_the_universe_kind():
    assert law("x", (1, 2), lambda x: True, exact=False).status == CERTIFIED
    assert law("x", Sample(2, lambda: 1), lambda x: True, exact=True).status == PASS


def test_witness_is_the_first_failing_case():
    clause = law("small", (1, 5, 7, 9), lambda x: x < 5)
    assert (clause.status, clause.witness) == (FAIL, 5)
    assert not clause.ok


def test_witness_shapes():
    assert law("a", (3,), lambda x: False, witness="e").witness == {"e": 3}
    pairs = ((1, 2), (3, 4))
    assert law("a", pairs, lambda pq: pq[0] > 2, witness=("p", "q")).witness == {"p": 1, "q": 2}
    assert law("a", (3,), lambda x: False, witness=lambda x: [x, x]).witness == [3, 3]
    named = law("a", (3, 4), lambda x: x == 3 or {"bad": x, "why": "odd one"})
    assert (named.status, named.witness) == (FAIL, {"bad": 4, "why": "odd one"})
    assert law("a", (3,), lambda x: False, witness=lambda x: None).status == FAIL


def _even(x) -> bool:
    return x % 2 == 0


def test_checked_counts_only_premise_cases():
    clause = law("half", tuple(range(10)), lambda x: x < 100, _even)
    assert (clause.status, clause.checked) == (PASS, 5)
    clause = law("half", tuple(range(10)), lambda x: x < 5, _even)
    assert (clause.status, clause.witness, clause.checked) == (FAIL, 6, 4)


def test_checked_is_the_budget_of_a_sized_universe():
    rng = random.Random(2)
    for universe in ((1, 5, 7, 9), Sample(4, lambda: 5 * rng.random() + 1)):
        assert law("small", universe, lambda x: x < 5).checked == 4
    assert law("small", (1, 5, 7, 9), lambda x: x < 5, tally=True).checked == 2
    assert law("small", iter((1, 5, 7, 9)), lambda x: x < 5).checked == 2
    assert law("small", (1, 5, 7), lambda x: x < 5, checked=9).checked == 9


@pytest.mark.parametrize("kind", ["sample", "generator"])
def test_sampled_universe_draws_nothing_after_the_witness(kind):
    # Hand-written search: draw until the first value above one half.
    by_hand = random.Random(7)
    for _ in range(50):
        if not by_hand.random() <= 0.5:
            break

    rng = random.Random(7)
    if kind == "sample":
        universe = Sample(50, rng.random)
    else:
        universe = (rng.random() for _ in range(50))
    clause = law("low", universe, lambda x: x <= 0.5, tally=True)
    assert clause.status == FAIL and clause.checked < 50
    assert rng.random() == by_hand.random()


def test_sampled_universe_shares_its_stream_with_the_next_law():
    by_hand = random.Random(3)
    first = None
    for _ in range(20):
        x = by_hand.random()
        if x > 0.8:
            first = x
            break
    second = [by_hand.random() for _ in range(3)]

    rng = random.Random(3)
    a = law("a", Sample(20, rng.random), lambda x: x <= 0.8)
    b = law("b", Sample(3, rng.random), lambda x: False, witness=lambda x: x)
    assert first is not None and a.witness == first
    assert b.witness == second[0]


def test_check_functions_return_named_clauses(bundled):
    """Each single check returns a Clause under its report name."""

    m1, base1 = bundled["m1"]
    collapse = endo_from_int_matrix(m1, [[0, 1], [0, 1]])
    jp = base1.j(Vec((1, 0)))
    closure_model, closure_base = load_model(FIXTURES_DIR / "corrupt_missing_closure.json")
    normal_model, normal_base = load_model(FIXTURES_DIR / "corrupt_nonnormal_foci.json")
    shifted_model, shifted_base = load_model(
        FIXTURES_DIR / "corrupt_focus_outside_interval.json"
    )
    cases = [
        (
            is_compression(m1, collapse),
            "compression",
            {"effect": Vec((1, 0))},
            4,
        ),
        (is_direct(m1, collapse), "direct", {"effect": Vec((0, 1))}, 4),
        (
            kernel_complement_check(m1, jp, jp),
            "kernel_complement",
            {"positive": Vec((0, 1)), "direction": "fixed_by_complement_vs_killed"},
            4,
        ),
        (
            commutant_absorption_check(shifted_base, Vec((0, 1)), Vec((0, 1))),
            "commutant_absorption",
            {"p": Vec((0, 1)), "g": Vec((0, 1)), "direction": "dominated_but_incompatible"},
            1,
        ),
        (
            is_sub_effect_algebra(closure_model, closure_base.foci),
            "foci_sub_effect_algebra",
            {"check": "orthosupplement_closed", "element": Vec((1, 0)), "missing": Vec((0, 1))},
            5,
        ),
        (
            is_normal_subalgebra(normal_model, normal_base.foci),
            "foci_normal_subalgebra",
            {"e": Vec((0, 0, 1, 0)), "f": Vec((1, 0, 0, 0)), "d": Vec((0, 0, 0, 1))},
            2,
        ),
    ]
    for clause, name, witness, checked in cases:
        assert isinstance(clause, Clause)
        assert (clause.name, clause.status) == (name, FAIL)
        assert (clause.witness, clause.checked) == (witness, checked)
    # the same checks pass, under the same names, on a valid base
    assert is_sub_effect_algebra(m1, base1.foci).name == "foci_sub_effect_algebra"
    assert commutant_absorption_check(base1, Vec((0, 1)), Vec((0, 1))).status == PASS

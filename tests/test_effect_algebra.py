"""Partial sums, Mackey decompositions, subalgebras, normality, center."""

from itertools import product

import pytest
from hypothesis import assume, example, given, settings

from compbase import (
    EffectAlgebra,
    LatticeConeModel,
    MackeyTriple,
    MembershipError,
    NotEnumerableError,
    SubEffectAlgebra,
    SymMat,
    Vec,
    center,
    direct_compression_base,
    is_mackey_compatible,
    is_normal_subalgebra,
    is_sub_effect_algebra,
    load_model,
    mackey_decompositions,
)
from conftest import FIXTURES_DIR, seeded_cones


def brute_mackey(algebra, e, f):
    """Reference decomposition search: scan all of E^3 directly."""
    leq = algebra.structure.leq
    out = set()
    for e1, f1, d in product(algebra.elements, repeat=3):
        if e1 + d == e and f1 + d == f and leq(e1 + f1 + d, algebra.unit):
            out.add(MackeyTriple(e1, f1, d))
    return out


def test_oplus_partiality(bundled):
    algebra = EffectAlgebra(bundled["m1"][0])
    e, f = Vec((1, 0)), Vec((0, 1))
    assert algebra.oplus(e, f) == Vec((1, 1))
    assert algebra.oplus(e, e) is None
    assert algebra.defined(algebra.zero, algebra.unit)


def test_orthosupplement(bundled):
    algebra = EffectAlgebra(bundled["m1"][0])
    e = Vec((1, 0))
    comp = algebra.orthosupplement(e)
    assert comp == Vec((0, 1))
    assert algebra.oplus(e, comp) == algebra.unit
    assert algebra.orthosupplement(comp) == e


def test_membership_is_enforced(bundled):
    algebra = EffectAlgebra(bundled["m1"][0])
    outside = Vec((2, 0))
    assert not algebra.contains(outside)
    with pytest.raises(MembershipError):
        algebra.oplus(outside, algebra.zero)
    with pytest.raises(MembershipError):
        algebra.orthosupplement(outside)


@pytest.mark.parametrize("name", ("m1", "m2"))
def test_mackey_matches_brute_force_scan(name, bundled):
    algebra = EffectAlgebra(bundled[name][0])
    for e in algebra.elements:
        for f in algebra.elements:
            got = mackey_decompositions(algebra, e, f)
            assert len(set(got)) == len(got)
            assert set(got) == brute_mackey(algebra, e, f)


def test_mackey_swap_symmetry(bundled):
    algebra = EffectAlgebra(bundled["m5"][0])
    for e in algebra.elements:
        for f in algebra.elements:
            forward = set(mackey_decompositions(algebra, e, f))
            swapped = {MackeyTriple(t.f1, t.e1, t.d) for t in mackey_decompositions(algebra, f, e)}
            assert forward == swapped


def test_mackey_of_comparable_pair(bundled):
    algebra = EffectAlgebra(bundled["m2"][0])
    one, two = Vec((1,)), Vec((2,))
    # e <= f always decomposes through d = e
    assert is_mackey_compatible(algebra, one, two)
    assert MackeyTriple(Vec((0,)), one, one) in mackey_decompositions(algebra, one, two)


def test_mackey_needs_enumerable_interval_without_within(bundled):
    model, base = bundled["m3"]
    algebra = EffectAlgebra(model)
    p = base.foci[1]
    with pytest.raises(NotEnumerableError):
        mackey_decompositions(algebra, p, p)


def test_mackey_within_focus_algebra(bundled):
    model, base = bundled["m3"]
    algebra = EffectAlgebra(model)
    within = SubEffectAlgebra(algebra, frozenset(base.foci))
    diag0 = SymMat.from_rows([[1, 0], [0, 0]])
    diag1 = SymMat.from_rows([[0, 0], [0, 1]])
    hplus = SymMat.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    assert is_mackey_compatible(algebra, diag0, diag1, within=within)
    assert not is_mackey_compatible(algebra, diag0, hplus, within=within)
    half_unit = SymMat.from_rows([["1/2", 0], [0, "1/2"]])
    with pytest.raises(MembershipError):
        mackey_decompositions(algebra, diag0, half_unit, within=within)


def test_within_triples_inject_into_full_search(bundled):
    model, base = bundled["m1"]
    algebra = EffectAlgebra(model)
    within = SubEffectAlgebra(algebra, frozenset(base.foci))
    for p in base.foci:
        for q in base.foci:
            restricted = set(mackey_decompositions(algebra, p, q, within=within))
            assert restricted <= set(mackey_decompositions(algebra, p, q))


def test_sub_effect_algebra_positive(bundled):
    model, base = bundled["m1"]
    algebra = EffectAlgebra(model)
    assert is_sub_effect_algebra(algebra, base.foci).ok


def test_sub_effect_algebra_rejects_missing_complement(bundled):
    algebra = EffectAlgebra(bundled["m1"][0])
    res = is_sub_effect_algebra(algebra, [Vec((0, 0)), Vec((1, 0)), Vec((1, 1))])
    assert not res.ok
    assert res.witness["check"] == "orthosupplement_closed"
    assert res.witness["missing"] == Vec((0, 1))


def test_sub_effect_algebra_rejects_missing_zero(bundled):
    algebra = EffectAlgebra(bundled["m2"][0])
    res = is_sub_effect_algebra(algebra, [Vec((2,))])
    assert not res.ok
    assert res.witness["check"] == "contains_zero"


def test_sub_effect_algebra_rejects_non_effect(bundled):
    algebra = EffectAlgebra(bundled["m2"][0])
    res = is_sub_effect_algebra(algebra, [Vec((0,)), Vec((3,)), Vec((2,))])
    assert not res.ok
    assert res.witness["check"] == "member_is_effect"


def test_sub_effect_algebra_rejects_open_sum(bundled):
    algebra = EffectAlgebra(bundled["m2"][0])
    # {0, 1, 2} minus nothing is closed; dropping 2 from the sum's reach:
    res = is_sub_effect_algebra(algebra, [Vec((0,)), Vec((1,)), Vec((2,))])
    assert res.ok
    model, _ = bundled["m5"]
    alg5 = EffectAlgebra(model)
    members = [Vec((0, 0)), Vec((0, 1)), Vec((1, 0)), Vec((1, 1))]
    res5 = is_sub_effect_algebra(alg5, members)
    assert not res5.ok
    assert res5.witness["check"] == "partial_sum_closed"


def test_normality_positive_on_declared_foci(bundled):
    for name in ("m1", "m2", "m5"):
        model, base = bundled[name]
        algebra = EffectAlgebra(model)
        sub = SubEffectAlgebra(algebra, frozenset(base.foci))
        assert is_normal_subalgebra(algebra, sub).ok


def test_normality_negative_witness():
    model, base = load_model(FIXTURES_DIR / "corrupt_nonnormal_foci.json")
    algebra = EffectAlgebra(model)
    sub = SubEffectAlgebra(algebra, frozenset(base.foci))
    assert is_sub_effect_algebra(algebra, sub.members).ok
    res = is_normal_subalgebra(algebra, sub)
    assert not res.ok
    e, f, d = res.witness["e"], res.witness["f"], res.witness["d"]
    assert d not in sub.members
    assert e + d in sub.members and f + d in sub.members
    assert algebra.structure.leq(e + f + d, algebra.unit)


def test_center_sizes(bundled):
    assert len(center(EffectAlgebra(bundled["m1"][0])).members) == 4
    assert len(center(EffectAlgebra(bundled["m2"][0])).members) == 2
    assert len(center(EffectAlgebra(bundled["m5"][0])).members) == 4


def test_center_not_enumerable_on_matrix(bundled):
    with pytest.raises(NotEnumerableError):
        center(EffectAlgebra(bundled["m3"][0]))


def central_by_product(algebra, c) -> bool:
    """Whether f -> (f1, f2), the split f = f1 + f2 with f1 <= c and
    f2 <= u - c, is an isomorphism of E onto [0, c] x [0, u - c].

    The definition of a central element, checked directly: every pair of
    the product sums to a distinct effect, every effect is such a sum, and
    a sum of effects is defined exactly when the componentwise sums are.
    """
    leq, unit, elements = algebra.structure.leq, algebra.unit, algebra.elements
    comp = unit - c
    split = {}
    for a in (e for e in elements if leq(e, c)):
        for b in (e for e in elements if leq(e, comp)):
            if a + b in split:
                return False
            split[a + b] = (a, b)
    if set(split) != set(elements):
        return False
    for f, g in product(elements, repeat=2):
        (af, bf), (ag, bg) = split[f], split[g]
        if leq(f + g, unit) != (leq(af + ag, c) and leq(bf + bg, comp)):
            return False
    return True


# a cone that is not a product of chains, where c = (-2, -1) splits every
# effect uniquely but u - c is not principal, and the square pyramid
NON_PRODUCT = [
    (((-1, 2), (-2, 0)), (-3, 3)),
    (((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)), (0, 0, 2)),
]


@pytest.mark.parametrize("rows,unit", NON_PRODUCT)
def test_center_of_non_product_cones_is_trivial(rows, unit):
    model = LatticeConeModel(len(unit), rows, Vec(unit))
    assert center(EffectAlgebra(model)).members == {model.zero, model.unit}
    base, report = direct_compression_base(model)
    assert report.ok, report.first_failure()
    assert set(base.foci) == {model.zero, model.unit}


@settings(max_examples=40, deadline=None)
@given(cone=seeded_cones())
@example(cone=([(1, 0), (0, 1)], (2, 3)))
@example(cone=([(1, 0), (1, 1)], (1, 1)))  # m5
@example(cone=([(-1, 2), (-2, 0)], (-3, 3)))
@example(cone=([(2, 1), (1, 2)], (3, 1)))
def test_center_matches_product_decomposition(cone):
    rows, unit = cone
    model = LatticeConeModel(2, tuple(rows), Vec(unit))
    try:
        interval = model.interval()
    except NotEnumerableError:
        assume(False)
    # an empty interval (a unit outside its cone) has no zero to be central
    assume(2 <= len(interval) <= 40)
    algebra = EffectAlgebra(model)
    got = center(algebra).members
    assert got == {c for c in interval if central_by_product(algebra, c)}

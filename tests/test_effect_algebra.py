"""Partial sums, Mackey decompositions, subalgebras, normality, center."""

from itertools import product

import pytest
from hypothesis import assume, example, given, settings

from compbase import (
    Endomorphism,
    LatticeConeModel,
    MackeyTriple,
    MembershipError,
    NotEnumerableError,
    Substructure,
    SymMat,
    Vec,
    center,
    commutant_substructure,
    direct_compression_base,
    image_substructure,
    is_effect,
    is_mackey_compatible,
    is_normal_subalgebra,
    is_sub_effect_algebra,
    load_model,
    mackey_decompositions,
)
from compbase.models import down_set
from conftest import FIXTURES_DIR, seeded_cones


def brute_mackey(structure, e, f):
    """Reference decomposition search over E^3, by set lookup: d fixes
    e1 = e - d and f1 = f - d, so scan d and look those two up in E."""
    elements = structure.interval()
    effects = set(elements)
    return {
        MackeyTriple(e - d, f - d, d)
        for d in elements
        if e - d in effects
        and f - d in effects
        and structure.leq(e + f - d, structure.unit)
    }


def test_oplus_partiality(bundled):
    """e (+) f is defined exactly when the group sum is an effect."""
    model = bundled["m1"][0]
    e, f = Vec((1, 0)), Vec((0, 1))
    assert is_effect(model, e + f) and e + f == Vec((1, 1))
    assert not is_effect(model, e + e)
    assert is_effect(model, model.zero + model.unit)


def test_orthosupplement(bundled):
    """u - e is the one effect f with e + f = u."""
    model = bundled["m1"][0]
    effects = model.interval()
    for e in effects:
        assert [f for f in effects if e + f == model.unit] == [model.unit - e]


def test_membership_is_enforced(bundled):
    model = bundled["m1"][0]
    outside = Vec((2, 0))
    assert not is_effect(model, outside)
    with pytest.raises(MembershipError, match="e is not an effect"):
        mackey_decompositions(model, outside, model.zero)
    with pytest.raises(MembershipError, match="f is not an effect"):
        is_mackey_compatible(model, model.zero, outside)


@pytest.mark.parametrize("name", ("m1", "m2"))
def test_mackey_matches_brute_force_scan(name, bundled):
    model = bundled[name][0]
    for e in model.interval():
        for f in model.interval():
            got = mackey_decompositions(model, e, f)
            assert len(set(got)) == len(got)
            assert set(got) == brute_mackey(model, e, f)


def test_mackey_swap_symmetry(bundled):
    model = bundled["m5"][0]
    for e in model.interval():
        for f in model.interval():
            forward = set(mackey_decompositions(model, e, f))
            swapped = {MackeyTriple(t.f1, t.e1, t.d) for t in mackey_decompositions(model, f, e)}
            assert forward == swapped


def test_mackey_of_comparable_pair(bundled):
    model = bundled["m2"][0]
    one, two = Vec((1,)), Vec((2,))
    # e <= f always decomposes through d = e
    assert is_mackey_compatible(model, one, two)
    assert MackeyTriple(Vec((0,)), one, one) in mackey_decompositions(model, one, two)


def test_mackey_needs_enumerable_interval_without_within(bundled):
    model, base = bundled["m3"]
    p = base.foci[1]
    with pytest.raises(NotEnumerableError):
        mackey_decompositions(model, p, p)
    with pytest.raises(NotEnumerableError):
        is_mackey_compatible(model, p, p)


def test_down_set_of_a_matrix_structure_is_not_enumerable(bundled):
    """down_set refuses a matrix model and a matrix substructure as their
    interval() does, with NotEnumerableError."""
    model, base = bundled["m3"]
    p = base.foci[1]
    for structure in (model, image_substructure(base, p), commutant_substructure(base, p)):
        with pytest.raises(NotEnumerableError):
            structure.interval()
        with pytest.raises(NotEnumerableError):
            down_set(structure, p)


def test_mackey_within_focus_algebra(bundled):
    model, base = bundled["m3"]
    within = base.foci
    diag0 = SymMat.from_rows([[1, 0], [0, 0]])
    diag1 = SymMat.from_rows([[0, 0], [0, 1]])
    hplus = SymMat.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    assert mackey_decompositions(model, diag0, diag1, within=within)
    assert not mackey_decompositions(model, diag0, hplus, within=within)
    half_unit = SymMat.from_rows([["1/2", 0], [0, "1/2"]])
    with pytest.raises(MembershipError):
        mackey_decompositions(model, diag0, half_unit, within=within)


def test_within_triples_inject_into_full_search(bundled):
    model, base = bundled["m1"]
    for p in base.foci:
        for q in base.foci:
            restricted = mackey_decompositions(model, p, q, within=reversed(base.foci))
            assert set(restricted) <= set(mackey_decompositions(model, p, q))
            # the search runs in sort_key order whatever order within has
            assert restricted == mackey_decompositions(model, p, q, within=base.foci)


def test_sub_effect_algebra_positive(bundled):
    model, base = bundled["m1"]
    assert is_sub_effect_algebra(model, base.foci).ok


def test_sub_effect_algebra_rejects_missing_complement(bundled):
    res = is_sub_effect_algebra(bundled["m1"][0], [Vec((0, 0)), Vec((1, 0)), Vec((1, 1))])
    assert not res.ok
    assert res.witness["check"] == "orthosupplement_closed"
    assert res.witness["missing"] == Vec((0, 1))


def test_sub_effect_algebra_rejects_missing_zero(bundled):
    res = is_sub_effect_algebra(bundled["m2"][0], [Vec((2,))])
    assert not res.ok
    assert res.witness["check"] == "contains_zero"


def test_sub_effect_algebra_rejects_non_effect(bundled):
    res = is_sub_effect_algebra(bundled["m2"][0], [Vec((0,)), Vec((3,)), Vec((2,))])
    assert not res.ok
    assert res.witness["check"] == "member_is_effect"


def test_sub_effect_algebra_rejects_open_sum(bundled):
    # {0, 1, 2} minus nothing is closed; dropping 2 from the sum's reach:
    res = is_sub_effect_algebra(bundled["m2"][0], [Vec((0,)), Vec((1,)), Vec((2,))])
    assert res.ok
    members = [Vec((0, 0)), Vec((0, 1)), Vec((1, 0)), Vec((1, 1))]
    res5 = is_sub_effect_algebra(bundled["m5"][0], members)
    assert not res5.ok
    assert res5.witness["check"] == "partial_sum_closed"


def test_normality_positive_on_declared_foci(bundled):
    for name in ("m1", "m2", "m5"):
        model, base = bundled[name]
        assert is_normal_subalgebra(model, base.foci).ok


def test_normality_negative_witness():
    model, base = load_model(FIXTURES_DIR / "corrupt_nonnormal_foci.json")
    assert is_sub_effect_algebra(model, base.foci).ok
    res = is_normal_subalgebra(model, base.foci)
    assert not res.ok
    e, f, d = res.witness["e"], res.witness["f"], res.witness["d"]
    assert d not in base.foci
    assert e + d in base.foci and f + d in base.foci
    assert model.leq(e + f + d, model.unit)


def test_center_sizes(bundled):
    assert len(center(bundled["m1"][0])) == 4
    assert len(center(bundled["m2"][0])) == 2
    assert len(center(bundled["m5"][0])) == 4


def test_center_not_enumerable_on_matrix(bundled):
    with pytest.raises(NotEnumerableError):
        center(bundled["m3"][0])


def central_by_product(model, c) -> bool:
    """Whether f -> (f1, f2), the split f = f1 + f2 with f1 <= c and
    f2 <= u - c, is an isomorphism of E onto [0, c] x [0, u - c].

    The definition of a central element, checked directly: every pair of
    the product sums to a distinct effect, every effect is such a sum, and
    a sum of effects is defined exactly when the componentwise sums are.
    """
    leq, unit, elements = model.leq, model.unit, model.interval()
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
    assert center(model) == {model.zero, model.unit}
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
    got = center(model)
    assert got == {c for c in interval if central_by_product(model, c)}


# the central effects at the commit before center took the structure
CENTER = {
    "m1": {(0, 0), (0, 1), (1, 0), (1, 1)},
    "m2": {(0,), (2,)},
    "m5": {(0, 0), (0, 2), (1, -1), (1, 1)},
}


@pytest.mark.parametrize("name", sorted(CENTER))
def test_center_is_the_frozenset_it_was(name, bundled):
    got = center(bundled[name][0])
    assert isinstance(got, frozenset)
    assert got == {Vec(c) for c in CENTER[name]}


def _substructures(base):
    for v in base.foci:
        yield image_substructure(base, v)
        yield commutant_substructure(base, v)


def _assert_compatible_iff_a_triple(structure) -> int:
    """Returns the number of incompatible effect pairs."""
    effects = structure.interval()
    incompatible = 0
    for e, f in product(effects, repeat=2):
        compatible = is_mackey_compatible(structure, e, f)
        assert compatible == bool(brute_mackey(structure, e, f)), (e, f)
        incompatible += not compatible
    return incompatible


@settings(max_examples=12, deadline=None)
@given(cone=seeded_cones())
@example(cone=([(1, 0), (0, 1)], (2, 1)))
@example(cone=([(1, 0), (1, 1)], (1, 1)))  # m5
@example(cone=([(-1, 2), (-2, 0)], (-3, 3)))
def test_first_triple_decides_compatibility(cone):
    """is_mackey_compatible stops at the first triple; it says yes exactly
    when the E^3 scan finds one."""
    rows, unit = cone
    model = LatticeConeModel(2, tuple(rows), Vec(unit))
    try:
        interval = model.interval()
    except NotEnumerableError:
        assume(False)
    assume(1 <= len(interval) <= 40)
    _assert_compatible_iff_a_triple(model)


def _pyramid():
    """The square pyramid with unit (0, 0, 2) (NON_PRODUCT), as the
    substructure of its model cut out by the identity projector."""
    rows, unit = NON_PRODUCT[1]
    model = LatticeConeModel(3, rows, Vec(unit))
    identity = Endomorphism(model, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    return Substructure(model, "commutant", model.unit, model.unit, identity)


@pytest.mark.parametrize("name", ("m1", "m5", "pyramid"))
def test_first_triple_decides_compatibility_in_substructures(name, bundled):
    """Every effect pair of m1 and m5 (products of chains) is compatible,
    so the pyramid, which is not, makes a constant answer fail."""
    if name == "pyramid":
        sub = _pyramid()
        assert not is_mackey_compatible(sub, Vec((1, 0, 1)), Vec((0, 1, 1)))
        assert _assert_compatible_iff_a_triple(sub) > 0
        return
    for sub in _substructures(bundled[name][1]):
        _assert_compatible_iff_a_triple(sub)


def _diagonal():
    """Z^2 under the standard cone with unit (2, 2), and the substructure
    with the same unit cut out by [[1, 1], [1, 1]] / 2: the diagonal."""
    model = LatticeConeModel(2, ((1, 0), (0, 1)), Vec((2, 2)))
    half = Endomorphism(model, ((1, 1), (1, 1)), 2)
    return model, Substructure(model, "commutant", model.unit, model.unit, half)


@pytest.mark.parametrize("name", ("m1", "m2", "m5", "diagonal"))
def test_effects_are_the_enumerated_interval(name, bundled):
    """On a finite structure is_effect holds exactly on the enumerated
    interval, over a box around it: in the model, in every image and
    commutant substructure of its base, and on the diagonal, whose
    non-members include parent effects below its unit."""
    if name == "diagonal":
        model, sub = _diagonal()
        structures = (model, sub)
        assert all(is_effect(model, x) and not is_effect(sub, x) for x in (Vec((1, 0)), Vec((2, 1))))
    else:
        model, base = bundled[name]
        structures = (model, *_substructures(base))
    box = [Vec(c) for c in product(range(-3, 4), repeat=model.dim)]
    for structure in structures:
        interval = set(structure.interval())
        for x in box:
            assert is_effect(structure, x) == (x in interval), (structure, x)
            assert is_effect(structure, x) == (
                structure.is_member(x)
                and structure.is_positive(x)
                and structure.leq(x, structure.unit)
            )


def test_effects_of_the_matrix_model(bundled):
    model = bundled["m3"][0]
    half = SymMat.from_rows([["1/2", 0], [0, "1/2"]])
    assert is_effect(model, half) and is_effect(model, model.unit)
    assert not is_effect(model, model.unit + model.unit)
    assert not is_effect(model, model.zero - half)
    assert not is_effect(model, Vec((0, 0)))
    assert not is_effect(model, SymMat.from_rows([[0]]))

"""The universes of lattice substructures against the filters they replaced.

A substructure lists its boxes by the model's rule (models.positive_box):
range_band on a Z-basis of its members (models.member_lattice), between 0
and n*w for every unit w up to the model.  conftest.filtered_band is the
element-by-element filter of the parent's universe, and
conftest.fixed_points_band the same filter testing den*g == M g; these
tests hold every band to both, tuple for tuple, order included, on the
bundled models, seeded cones, a Z^3 grid, substructures nested through
restricted_base, a focus outside the unit interval, and hand-built
projectors, one of them over the denominator 2.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from compbase import (
    Endomorphism,
    LatticeConeModel,
    MembershipError,
    Substructure,
    Vec,
    base_from_family,
    commutant_substructure,
    identity_endo,
    image_substructure,
    is_effect,
    load_model,
    restricted_base,
)
from compbase.models import (
    UnboundedIntervalError,
    lattice_basis,
    member_lattice,
    positive_box,
    range_band,
)
from conftest import (
    FIXTURES_DIR,
    LATTICE,
    MODELS_DIR,
    corner_model,
    filtered_band,
    fixed_points_band,
    retraction_base,
    seeded_cones,
)

N = 3  # the default height bound
KINDS = (image_substructure, commutant_substructure)
STANDARD = ((1, 0), (0, 1))


def assert_bands_match(sub, n=N):
    assert sub.interval() == filtered_band(sub, 0, 1) == fixed_points_band(sub, 1)
    box = sub.positive_universe(2 * n)
    assert box == filtered_band(sub, 0, 2 * n) == fixed_points_band(sub, 2 * n)


def substructures(base, depth=1):
    """Every image and commutant of a focus of the base, and, to `depth`
    further levels, those of each restricted base."""

    for v in base.foci:
        for build in KINDS:
            try:
                sub = build(base, v)
            except MembershipError:  # the complement of v escapes the base
                continue
            yield sub
            if depth:
                yield from substructures(restricted_base(base, sub), depth - 1)


@settings(max_examples=25, deadline=None)
@given(source=st.one_of(st.sampled_from(LATTICE), seeded_cones()))
@example(source="m1")
@example(source="m2")
@example(source="m5")
def test_bands_match_the_filter(source):
    if isinstance(source, str):
        base = load_model(MODELS_DIR / f"{source}.json")[1]
    else:
        base = retraction_base(*source)
    for sub in substructures(base):
        assert_bands_match(sub)


def test_bands_match_the_filter_on_a_z3_grid(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(corner_model((2, 2, 2))))
    base = load_model(path)[1]
    subs = list(substructures(base))
    kinds = {(sub.kind, getattr(sub.parent, "kind", None)) for sub in subs}
    assert {("image", "commutant"), ("commutant", "image")} <= kinds
    for sub in subs:
        assert_bands_match(sub)


def test_bands_match_the_filter_on_a_focus_outside_the_interval():
    base = load_model(FIXTURES_DIR / "corrupt_focus_outside_interval.json")[1]
    for sub in substructures(base):
        assert_bands_match(sub)
    # a hand-built image whose unit is not below the parent's: both units cut the band
    model = base.structure
    sub = Substructure(model, "image", Vec((2, 0)), Vec((2, 0)), Endomorphism(model, ((1, 0), (0, 0))))
    assert_bands_match(sub)
    assert sub.interval() == (Vec((0, 0)), Vec((1, 0)))


def test_the_range_needs_a_basis_of_its_lattice():
    """P = [[2, -1], [2, -1]] is idempotent with range (1, 1)Z.  Its first
    column (2, 2) spans the same line but only its even points."""

    model = LatticeConeModel(2, STANDARD, Vec((2, 2)))
    p = Endomorphism(model, ((2, -1), (2, -1)))
    assert lattice_basis(zip(*p.matrix)) in ([(1, 1)], [(-1, -1)])
    sub = Substructure(model, "image", Vec((1, 1)), Vec((1, 1)), p)
    assert_bands_match(sub)
    assert sub.interval() == (Vec((0, 0)), Vec((1, 1)))
    assert sub.positive_universe(2) == tuple(Vec((t, t)) for t in range(3))


@pytest.mark.parametrize(
    "matrix",
    [((2, 0), (0, 0)), ((0, 1), (1, 0)), ((1, 1), (0, 1)), ((0, 0), (0, 0))],
    ids=["doubling", "swap", "shear", "zero"],
)
def test_bands_match_the_filter_for_any_projector(matrix):
    """Only the points P fixes are members, whether or not P is idempotent."""

    model = LatticeConeModel(2, STANDARD, Vec((2, 2)))
    p = Endomorphism(model, matrix)
    for unit in (Vec((1, 1)), Vec((2, 0)), Vec((0, 0))):
        assert_bands_match(Substructure(model, "image", unit, unit, p), n=2)
    assert_bands_match(Substructure(model, "commutant", model.unit, model.unit, p), n=2)


def test_a_projector_over_two_keeps_its_fixed_points():
    """P = [[1, 1], [1, 1]] / 2 is idempotent and fixes the diagonal.  Its
    band is the diagonal's, and the filter agrees: it meets (0, 1), which P
    sends off the lattice, and is_member answers False there.  Inside the
    diagonal, cut out by an integral projector, P is integral on every point."""

    model = LatticeConeModel(2, STANDARD, Vec((2, 2)))
    half = Endomorphism(model, ((1, 1), (1, 1)), 2)
    assert half.den == 2
    top = Substructure(model, "image", Vec((1, 1)), Vec((1, 1)), half)
    assert top.interval() == fixed_points_band(top, 1) == (Vec((0, 0)), Vec((1, 1)))
    assert filtered_band(top, 0, 1) == top.interval()
    onto_diagonal = Endomorphism(model, ((1, 0), (1, 0)))
    diagonal = Substructure(model, "commutant", model.unit, model.unit, onto_diagonal)
    sub = Substructure(diagonal, "image", Vec((1, 1)), Vec((1, 1)), half)
    assert_bands_match(sub)
    assert sub.interval() == (Vec((0, 0)), Vec((1, 1)))
    assert sub.positive_universe(N) == tuple(Vec((t, t)) for t in range(N + 1))


def test_membership_under_a_projector_over_two_never_raises():
    """is_member decides P g == den * g on the coordinates, so a point that
    P / den sends off the lattice is a non-member, not an error; the same
    on the image of a declared base that holds that map."""

    model = LatticeConeModel(2, STANDARD, Vec((2, 2)))
    half = Endomorphism(model, ((1, 1), (1, 1)), 2)
    built = Substructure(model, "image", Vec((2, 2)), Vec((2, 2)), half)
    base = base_from_family(model, [(Vec((2, 2)), half)])
    for sub in (built, image_substructure(base, Vec((2, 2)))):
        assert not sub.is_member(Vec((1, 0)))
        assert not is_effect(sub, Vec((1, 0)))
        assert sub.is_member(Vec((1, 1))) and is_effect(sub, Vec((1, 1)))
        assert not sub.is_member(Vec((3, 1)))


def test_range_band_lists_the_points_in_order():
    model = LatticeConeModel(2, STANDARD, Vec((2, 2)))
    # the x-axis, cut by the units (2, 2) and (1, 3): 0 <= x <= 1 at height 1
    points = range_band(model, ((1, 0), (0, 0)), (Vec((2, 2)), Vec((1, 3))), 0, 1)
    assert points == [Vec((0, 0)), Vec((1, 0))]
    # all of Z^2, signed, in lexicographic order
    points = range_band(model, ((1, 0), (0, 1)), (Vec((1, 1)),), -1, 1)
    assert [g.coords for g in points] == sorted(g.coords for g in points)
    assert len(points) == 9
    # the zero range: only 0, and only when 0 lies in the band
    assert range_band(model, ((0, 0), (0, 0)), (Vec((1, 1)),), 0, 1) == [Vec((0, 0))]


def test_the_parent_box_raises_first():
    """A box of the parent too large to enumerate raises before the
    substructure's own, which is small: errors come in the parent's order."""

    model = LatticeConeModel(2, STANDARD, Vec((3000, 3000)))
    axis = Endomorphism(model, ((1, 0), (0, 0)))
    sub = Substructure(model, "image", Vec((1, 0)), Vec((1, 0)), axis)
    with pytest.raises(UnboundedIntervalError, match="too large"):
        sub.interval()
    assert positive_box(sub, 1) == (Vec((0, 0)), Vec((1, 0)))


def test_member_lattice_of_a_model_is_the_identity():
    assert member_lattice(LatticeConeModel(2, STANDARD, Vec((2, 2)))) == [(1, 0), (0, 1)]
    assert member_lattice(LatticeConeModel(3, ((1, 0, 0),), Vec((1, 0, 0)))) == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1)
    ]


@pytest.mark.parametrize(
    "matrix, members",
    [
        (((2, 0), (0, 0)), []),
        (((0, 1), (1, 0)), [(1, 1)]),
        (((1, 1), (0, 1)), [(1, 0)]),
        (((2, -1), (2, -1)), [(1, 1)]),
    ],
    ids=["doubling", "swap", "shear", "two_columns"],
)
def test_member_lattice_is_a_basis_of_the_fixed_points(matrix, members):
    """The members of a substructure are the points its projector fixes,
    whether or not it is idempotent; [[2, -1], [2, -1]] has the range
    (1, 1)Z, of which its columns generate only the even points."""

    model = LatticeConeModel(2, STANDARD, Vec((2, 2)))
    sub = Substructure(model, "image", model.unit, model.unit, Endomorphism(model, matrix))
    basis = member_lattice(sub)
    assert basis in (members, [tuple(-x for x in b) for b in members])
    # nested: the members fixed by both projectors
    inner = Substructure(sub, "commutant", model.unit, model.unit, identity_endo(model))
    assert member_lattice(inner) == basis

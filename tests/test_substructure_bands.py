"""The universes of lattice substructures against the filter they replaced.

Substructure._band enumerates a band from a basis of its projector's range
(models.range_band), or filters the parent's band by the projector alone
when the units agree.  conftest.filtered_band is the element-by-element
filter of the parent's universe; these tests hold every band to it, tuple
for tuple, order included, on the bundled models, seeded cones, a Z^3 grid,
substructures nested through restricted_base, a focus outside the unit
interval, and hand-built projectors.
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
    commutant_substructure,
    image_substructure,
    load_model,
    restricted_base,
)
from compbase import compatibility
from compbase.models import UnboundedIntervalError, lattice_basis, range_band
from conftest import (
    FIXTURES_DIR,
    LATTICE,
    MODELS_DIR,
    corner_model,
    filtered_band,
    retraction_base,
    seeded_cones,
)

N = 3  # the default height bound: validation asks for positive_universe(2n) and signed_universe(n)
KINDS = (image_substructure, commutant_substructure)
STANDARD = ((1, 0), (0, 1))


def assert_bands_match(sub, n=N):
    assert sub.interval() == filtered_band(sub, 0, 1)
    assert sub.positive_universe(2 * n) == filtered_band(sub, 0, 2 * n)
    assert sub.signed_universe(n) == filtered_band(sub, -n, n)


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
    assert sub.signed_universe(2) == tuple(Vec((t, t)) for t in range(-2, 3))


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


def test_the_filter_decides_where_the_range_cannot_be_bounded(monkeypatch, bundled):
    def unbounded(*args):
        raise UnboundedIntervalError("interval too large to enumerate")

    monkeypatch.setattr(compatibility, "range_band", unbounded)
    _, base = bundled["m1"]
    model = base.structure
    for v in base.foci:
        sub = Substructure(model, "image", v, v, base.j(v))  # fresh, so no band is kept yet
        assert_bands_match(sub)

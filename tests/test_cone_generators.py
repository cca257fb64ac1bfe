"""The lattice laws over all of G, decided from cone generators, against
the height-box sweeps they replaced.

models.cone_generators gives the lineality basis and the extreme rays of a
rational cone; the theorem, kernel-exchange, morphism and product laws of a
lattice structure are decided on them (models.cone_cases), and the unital
group's interval_generates_positives on the positive box of the derived
height N(C, u).  The sweeps are kept in conftest as oracles: an exact pass
must pass every box of heights 1-4, and an exact fail must name a witness
that the single-case check rejects.  They run on seeded Z^2 cones with one
retraction per focus, random bases of rank-one idempotents v w^T
(w . v = 1), m1, m2, m5 and the Z^3 grid with unit (2, 2, 2).
"""

from __future__ import annotations

import json
import tempfile
from functools import lru_cache
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from compbase import (
    CheckConfig,
    LatticeConeModel,
    MembershipError,
    Vec,
    base_from_family,
    commutant_substructure,
    direct_product_report,
    endo_from_int_matrix,
    identity_endo,
    image_substructure,
    kernel_complement_check,
    linalg,
    load_model,
    validate_unital_group,
    zero_endo,
)
from compbase import models
from compbase.compatibility import _absorbs, _commutant_absorption_clause
from compbase.models import (
    NotEnumerableError,
    _generation_height,
    _interval_sums,
    cone_generators,
)
from compbase.reporting import law
from conftest import (
    LATTICE,
    MODELS_DIR,
    absorption_sweep,
    corner_model,
    kernel_sweep,
    product_checks,
    product_sweeps,
    retraction_base,
    seeded_cones,
    signed_box,
    unit_order_unit_sweep,
)

HEIGHTS = (1, 2, 3, 4)
CFG = CheckConfig(samples=8)

# Z^2 under [[6, -1], [0, 1], [6, -5]] with unit (4, 1): a ray (5, 6) that no
# sum of interval elements reaches, first met by a box of height 6
SKEWED = ([(6, -1), (0, 1), (6, -5)], (4, 1))
PYRAMID = ([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], (0, 0, 2))


# ---------------------------------------------------------------------------
# cone_generators


def test_square_pyramid_has_four_rays():
    lineality, rays = cone_generators(3, PYRAMID[0])
    assert lineality == []
    assert rays == [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]


def test_a_cone_with_lineality():
    # x >= 0, y >= 0 in Q^3: the z axis is the lineality space
    assert cone_generators(3, [(1, 0, 0), (0, 1, 0)]) == ([(0, 0, 1)], [(0, 1, 0), (1, 0, 0)])
    # a half-plane: one ray off its boundary line
    assert cone_generators(2, [(1, 1)]) == ([(-1, 1)], [(1, 1)])
    assert cone_generators(2, []) == ([(0, 1), (1, 0)], [])


def test_equalities_cut_out_a_face():
    standard = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert cone_generators(3, standard, [(0, 0, 1)]) == ([], [(0, 1, 0), (1, 0, 0)])
    # the pyramid's face through (1, 1, 1) and (1, -1, 1), where x = z
    assert cone_generators(3, PYRAMID[0], [(1, 0, -1)]) == ([], [(1, -1, 1), (1, 1, 1)])
    # an equation that meets the cone only at 0
    assert cone_generators(2, [(1, 0), (0, 1)], [(1, 1)]) == ([], [])


def test_the_skewed_cone_has_the_ray_no_interval_sum_reaches():
    assert cone_generators(2, SKEWED[0]) == ([], [(1, 0), (5, 6)])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4))
def test_nullspace_is_a_primitive_basis(data, dim):
    rows = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), max_size=4))
    basis = linalg.nullspace(rows, dim)
    assert len(basis) == dim - linalg.rank(rows)
    assert linalg.rank(basis) == len(basis)
    for x in basis:
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)
        assert gcd(*x) == 1


# ---------------------------------------------------------------------------
# interval_generates_positives at the derived height


@st.composite
def random_cones(draw):
    """Z^2 or Z^3 under two to five rows with entries in [-6, 6] (Z^2) or
    [-2, 2] (Z^3), and a unit on which every row is positive."""

    dim = draw(st.sampled_from((2, 3)))
    reach = 6 if dim == 2 else 2
    entry = st.integers(-reach, reach)
    rows = draw(st.lists(st.tuples(*[entry] * dim), min_size=dim, max_size=dim + 2))
    unit = draw(st.tuples(*[st.integers(-3, 4)] * dim))
    return rows, unit


def old_generation_sweep(structure, height):
    """interval_generates_positives by the sweep of the positive box of a
    chosen height."""

    box = structure.positive_universe(height)
    reach = _interval_sums(structure, box)
    return law("interval_generates_positives", box, lambda g: g.coords in reach)


def assert_derived_height_matches_sweeps(structure):
    clauses = {c.name: c for c in validate_unital_group(structure, CFG).clauses}
    order_unit = clauses.get("unit_order_unit")
    assume(order_unit is not None and order_unit.ok)
    height = _generation_height(structure)
    exact = clauses["interval_generates_positives"]
    for h in (height, height + 1, height + 2):
        assert old_generation_sweep(structure, h).ok == exact.ok, h


@settings(max_examples=60, deadline=None)
@given(cone=st.one_of(seeded_cones(), random_cones()))
@example(cone=SKEWED)
@example(cone=PYRAMID)
@example(cone=([(1, 0), (1, 1)], (1, 1)))
def test_derived_height_matches_the_sweeps_above_it(cone):
    rows, unit = cone
    model = LatticeConeModel(len(unit), tuple(map(tuple, rows)), Vec(tuple(unit)))
    assume(linalg.rank(model.cone_rows) == model.dim)
    try:
        assume(len(model.positive_universe(_bound(model))) < 4000)
        assert_derived_height_matches_sweeps(model)
    except NotEnumerableError:
        assume(False)


def _bound(model):
    """The largest box the test sweeps, or a refusal when N does not exist."""
    unit = model.unit.coords
    assume(all(sum(a * b for a, b in zip(r, unit)) > 0 for r in model.cone_rows if any(r)))
    return _generation_height(model) + 2


def test_skewed_cone_needs_height_six():
    model = LatticeConeModel(2, tuple(SKEWED[0]), Vec(SKEWED[1]))
    assert _generation_height(model) == 6
    assert [old_generation_sweep(model, h).ok for h in (3, 5, 6)] == [True, True, False]
    clause = validate_unital_group(model, CFG).first_failure()
    assert clause.name == "interval_generates_positives"
    assert clause.witness == {"positive": Vec((5, 6))}


@pytest.mark.parametrize("source", LATTICE + ("z3",))
def test_height_one_is_decided_without_the_sweep(source, monkeypatch):
    """At N = 1 the box is the interval, each of whose members is its own
    sum: the clause is the sweep's, checked and note alike, on the model
    and its substructures, and no sweep runs."""

    base = load_model(MODELS_DIR / f"{source}.json")[1] if source != "z3" else _z3_base()
    kinds = (image_substructure, commutant_substructure)
    subs = [build(base, v) for v in base.foci for build in kinds]
    want = {}
    for structure in (base.structure, *subs):
        assert _generation_height(structure) == 1
        sweep = old_generation_sweep(structure, 1)
        want[structure] = sweep.status, sweep.checked, sweep.witness

    def no_sweep(*args):
        raise AssertionError("_interval_sums ran at N = 1")

    monkeypatch.setattr(models, "_interval_sums", no_sweep)
    for structure, fields in want.items():
        clauses = {c.name: c for c in validate_unital_group(structure, CFG).clauses}
        got = clauses["interval_generates_positives"]
        assert (got.status, got.checked, got.witness) == fields
        assert got.note.startswith("every positive below 1*unit")


@settings(max_examples=15, deadline=None)
@given(source=st.one_of(st.sampled_from(LATTICE), seeded_cones()))
@example(source="m5")
def test_derived_height_matches_the_sweeps_on_substructures(source):
    base = _base(source)
    for v in base.foci:
        for build in (image_substructure, commutant_substructure):
            try:
                sub = build(base, v)
            except MembershipError:  # the complement of v escapes the base
                continue
            clauses = {c.name: c for c in validate_unital_group(sub, CFG).clauses}
            if "unit_order_unit" not in clauses or not clauses["unit_order_unit"].ok:
                continue
            height = _generation_height(sub)
            exact = clauses["interval_generates_positives"].ok
            for h in (height, height + 1, height + 2):
                assert old_generation_sweep(sub, h).ok == exact, (v, sub.kind, h)


# ---------------------------------------------------------------------------
# the theorem, morphism and product laws


def _solve(a, b):
    """(x, y) with a x + b y = 1 for coprime a, b."""
    if b == 0:
        return a, 0
    x = pow(a, -1, abs(b))
    return x, (1 - a * x) // b


@st.composite
def rank_one_bases(draw):
    """A seeded Z^2 cone with foci p and u - p, each carrying a random
    rank-one idempotent v w^T with w . v = 1, and maybe 0 and u with the
    zero and identity maps."""

    rows, unit = draw(seeded_cones())
    model = LatticeConeModel(2, tuple(map(tuple, rows)), Vec(unit))
    small = st.integers(-3, 3)

    def idempotent():
        a, b = draw(st.tuples(small, small).filter(lambda w: gcd(*w) == 1))
        x, y = _solve(a, b)
        t = draw(st.integers(-2, 2))
        v = (x - t * b, y + t * a)
        return endo_from_int_matrix(model, [[v[0] * a, v[0] * b], [v[1] * a, v[1] * b]])

    p = Vec(draw(st.tuples(small, small)))
    family = {p: idempotent(), model.unit - p: idempotent()}
    if draw(st.booleans()):
        family.update({model.zero: zero_endo(model), model.unit: identity_endo(model)})
    assume(len(family) == (4 if model.zero in family else 2))
    return base_from_family(model, family.items())


def _base(source):
    if isinstance(source, str):
        if source == "z3":
            return _z3_base()
        return load_model(MODELS_DIR / f"{source}.json")[1]
    if hasattr(source, "foci"):
        return source
    return retraction_base(*source)


@lru_cache(maxsize=None)
def _z3_base():
    """Z^3 with unit (2, 2, 2) and one focus per block of coordinates."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "z3.json"
        path.write_text(json.dumps(corner_model((2, 2, 2))))
        return load_model(path)[1]


def _split_foci(base):
    return [p for p in base.foci if base.contains_focus(base.complement(p))]


def assert_absorption_matches(base):
    model = base.structure
    exact = _commutant_absorption_clause(base, CFG)
    if exact.ok:
        for h in HEIGHTS:
            assert absorption_sweep(base, product(base.foci, signed_box(model, h))).ok, h
    elif "g" in exact.witness:
        w = exact.witness
        assert _absorbs(base, w["p"], w["g"]) == w
    else:  # a focus whose complement escapes fails every case
        assert exact.witness["reason"] == "complement escapes the base"


def assert_kernel_exchange_matches(base):
    model = base.structure
    for p in _split_foci(base):
        j, j_comp = base.j(p), base.j(base.complement(p))
        exact = kernel_complement_check(model, j, j_comp)
        if exact.ok:
            for h in HEIGHTS:
                assert kernel_sweep(model, j, j_comp, model.positive_universe(h)).ok, (p, h)
        else:
            g = exact.witness["positive"]
            assert model.is_positive(g)
            assert kernel_sweep(model, j, j_comp, (g,)).witness == exact.witness


WITNESS_CASE = {
    "eta_order_preserving": lambda w: w["positive"],
    "kappa_order_preserving": lambda w: w["positive"],
    "eta_fixes_image": lambda w: w["element"],
    "kappa_fixes_image": lambda w: w["element"],
    "pairing_surjective": lambda w: (w["h"], w["k"]),
    "order_componentwise": lambda w: w["element"],
}


def assert_products_match(base):
    for v in _split_foci(base):
        exact = {c.name: c for c in direct_product_report(base, v).clauses}
        checks = product_checks(base, v)
        sweeps = {h: product_sweeps(base, v, h) for h in HEIGHTS}
        for name, check in checks.items():
            clause = exact[name]
            if clause.ok:
                assert all(sweeps[h][name].ok for h in sweeps), (v, name)
            else:
                assert check(WITNESS_CASE[name](clause.witness)) is not True, (v, name)


def assert_unit_order_unit_matches(base):
    for v in base.foci:
        for build in (image_substructure, commutant_substructure):
            try:
                sub = build(base, v)
            except MembershipError:
                continue
            clauses = validate_unital_group(sub, CFG).clauses
            clauses = [c for c in clauses if c.name == "unit_order_unit"]
            if not clauses:
                continue
            (exact,) = clauses
            for h in HEIGHTS:
                sweep = unit_order_unit_sweep(sub, h)
                if exact.ok:
                    assert sweep.ok, (v, sub.kind, h)
                elif "unit" in exact.witness:
                    # a unit outside the subgroup fails on any element; the
                    # box it cuts out may hold none
                    assert not sweep.ok or sweep.checked == 0, (v, sub.kind, h)


def _sheared_base():
    """Z^2 with the standard cone and unit (1, 1), with the foci (1, 0) ->
    [[1, 1], [0, 0]] and (0, 1) -> [[0, -1], [0, 1]], which sum to I: the
    commutant is Z^2, and J_(0,1) sends the positive (0, 1) to (-1, 1), so
    the order laws of the product fail."""

    model = LatticeConeModel(2, ((1, 0), (0, 1)), Vec((1, 1)))
    family = [
        (Vec((1, 0)), endo_from_int_matrix(model, [[1, 1], [0, 0]])),
        (Vec((0, 1)), endo_from_int_matrix(model, [[0, -1], [0, 1]])),
    ]
    return base_from_family(model, family)


ALL_CHECKS = (
    assert_absorption_matches,
    assert_kernel_exchange_matches,
    assert_products_match,
    assert_unit_order_unit_matches,
)


@settings(max_examples=30, deadline=None)
@given(source=st.one_of(st.sampled_from(LATTICE), seeded_cones(), rank_one_bases()))
@example(source="m1")
@example(source="m2")
@example(source="m5")
@example(source="z3")
@example(source=_sheared_base())
def test_exact_laws_agree_with_the_box_sweeps(source):
    base = _base(source)
    for check in ALL_CHECKS:
        check(base)


def _absorption_library_case():
    """Z^2 under [[-2, 1], [-2, 3], [3, 0]] with unit (1, 3) and the foci
    (1, 2) -> [[4, -12], [1, -3]] and (0, 1) -> [[0, -3], [0, 1]]."""

    model = LatticeConeModel(2, ((-2, 1), (-2, 3), (3, 0)), Vec((1, 3)))
    family = [
        (Vec((1, 2)), endo_from_int_matrix(model, [[4, -12], [1, -3]])),
        (Vec((0, 1)), endo_from_int_matrix(model, [[0, -3], [0, 1]])),
    ]
    return base_from_family(model, family)


def test_commutant_absorption_finds_what_the_boxes_miss():
    """g = (4, 1) dominates J_(1,2)(g) and is not in the commutant, yet the
    boxes of heights 3 and 6 hold no witness.  The generators of the cone
    {g : J_p(g) <= g} name one at the first focus."""

    base = _absorption_library_case()
    model = base.structure
    assert _absorbs(base, Vec((1, 2)), Vec((4, 1))) is not True
    for h in (3, 6):
        assert absorption_sweep(base, product(base.foci, signed_box(model, h))).ok, h
    clause = _commutant_absorption_clause(base, CFG)
    assert clause.status == "fail"
    witness = clause.witness
    assert witness["direction"] == "dominated_but_incompatible"
    assert _absorbs(base, witness["p"], witness["g"]) == witness
    assert not absorption_sweep(base, [(witness["p"], witness["g"])]).ok

"""Carrier models: interval enumeration, order axioms, endomorphisms."""

import gc
import json
import sys
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from compbase import (
    Endomorphism,
    LatticeConeModel,
    MatrixModel,
    NotEnumerableError,
    Report,
    Substructure,
    SymMat,
    Vec,
    base_from_family,
    commutant_substructure,
    compose,
    conjugation_endo,
    endo_equal,
    endo_from_int_matrix,
    identity_endo,
    image_substructure,
    validate_unital_group,
    zero_endo,
)
from compbase import linalg, models
from compbase.cli import main
from compbase.models import (
    UnboundedIntervalError,
    _directedness_exact,
    _interval_sums,
    integer_points,
)
from conftest import (
    LATTICE,
    MATRIX,
    basis_conjugation_endo,
    corner_model,
    interval_sweep_equal,
    minors_gcd_index,
    one_sided_points,
    seeded_cones,
    signed_box,
)


def brute_interval(model, box=8):
    """Independent interval enumeration by scanning a coordinate box."""
    out = []
    for pt in product(range(-box, box + 1), repeat=model.dim):
        g = Vec(pt)
        if model.is_positive(g) and model.leq(g, model.unit):
            out.append(g)
    return sorted(out, key=lambda v: v.coords)


def test_integer_points_simplex():
    # x, y >= 0 and x + y <= 2, as the bands 0 <= x, y <= 2 and -2 <= -x - y <= 0
    pts = integer_points({(1, 0): (0, 2), (0, 1): (0, 2), (-1, -1): (-2, 0)}, 2)
    assert set(pts) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}


def test_integer_points_empty_and_infeasible():
    assert integer_points({(0, 0): (1, 1)}, 2) == []
    assert integer_points({(1, 0): (1, 0)}, 2) == []
    # an empty band is read before the rank: no point, not an infinite set
    assert integer_points({(1, 1): (0, 1), (2, 2): (3, 2)}, 2) == []


def test_integer_points_unbounded_raises():
    with pytest.raises(NotEnumerableError, match="infinite"):
        integer_points({(1, 0): (0, 5)}, 2)
    # repeated and opposite rows do not raise the rank
    with pytest.raises(NotEnumerableError, match="infinite"):
        integer_points({(1, 1): (0, 2), (2, 2): (0, 4), (-1, -1): (-2, 0), (0, 0): (0, 0)}, 2)


@st.composite
def band_systems(draw):
    """A dimension 1-3 and bands lo <= a . y <= hi over rows with entries in
    [-3, 3], with zero rows, multiples and opposites of drawn rows, and
    bands that may be empty."""

    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=4))
    for a, k in draw(st.lists(st.tuples(st.sampled_from(rows), st.sampled_from([-2, -1, 2])),
                              max_size=2)):
        rows.append(tuple(k * x for x in a))
    if draw(st.booleans()):
        rows.append((0,) * dim)
    bands = {}
    for a in rows:
        lo = draw(st.integers(-6, 6))
        bands[a] = (lo, lo + draw(st.integers(-2, 8)))
    return bands, dim


@settings(max_examples=200, deadline=None)
@given(system=band_systems())
@example(system=({(1, -2): (0, 1), (-1, 3): (0, 1)}, 2))
@example(system=({(1, 1): (0, 2), (-1, -1): (-1, 1), (0, 0): (0, 0)}, 2))
@example(system=({(1, 1): (0, 2), (2, 2): (5, 4)}, 2))
@example(system=({(0, 0, 2): (1, 1)}, 3))
@example(system=({(1, 0, 0): (0, 1), (1, 1, 0): (5, 6), (0, 1, 0): (0, 1)}, 3))
@example(system=({(1, 1, 0): (1, 1), (1, -1, 0): (0, 0)}, 3))
def test_band_solver_matches_one_sided_solver(system):
    # the one-sided oracle reads each band as the rows a >= lo and -a >= -hi
    bands, dim = system
    rows = [r for a in bands for r in (a, tuple(-x for x in a))]
    rhs = [b for lo, hi in bands.values() for b in (lo, -hi)]
    try:
        want = one_sided_points(rows, rhs, dim)
    except UnboundedIntervalError as exc:
        assume("infinite" in str(exc))
        try:
            got = integer_points(bands, dim)
        except UnboundedIntervalError as mine:
            assert "infinite" in str(mine)
        else:
            # an empty set: none of its points lies in a box either
            box = [tuple(s * int(i == j) for j in range(dim)) for i in range(dim) for s in (1, -1)]
            assert got == one_sided_points(rows + box, rhs + [-20] * len(box), dim) == []
        return
    got = integer_points(bands, dim)
    assert got == want
    assert got == sorted(set(got))


def test_band_solver_refuses_a_box_over_the_point_cap():
    bands = {(1, 0): (0, 2000), (0, 1): (0, 2000)}
    for solve in (
        lambda: integer_points(bands, 2),
        lambda: one_sided_points([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -2000, 0, -2000], 2),
    ):
        with pytest.raises(UnboundedIntervalError, match="too large"):
            solve()


@pytest.mark.parametrize("name", LATTICE)
def test_interval_matches_brute_force(name, bundled):
    model, _ = bundled[name]
    assert sorted(model.interval(), key=lambda v: v.coords) == brute_interval(model)


def test_interval_sizes(bundled):
    assert len(bundled["m1"][0].interval()) == 4
    assert len(bundled["m2"][0].interval()) == 3
    assert len(bundled["m5"][0].interval()) == 6


def test_interval_with_zero_unit():
    model = LatticeConeModel(1, ((1,),), Vec((0,)))
    assert model.interval() == (Vec((0,)),)


def test_unbounded_cone_interval_raises():
    model = LatticeConeModel(2, ((1, 0),), Vec((1, 1)))
    with pytest.raises(NotEnumerableError):
        model.interval()


def test_interval_of_cone_without_axis_aligned_row():
    # Every cone row has two nonzero entries, so bound propagation alone
    # never starts; the box comes from inverting the two independent rows.
    model = LatticeConeModel(2, ((1, -2), (-1, 3)), Vec((5, 2)))
    expected = (Vec((0, 0)), Vec((2, 1)), Vec((3, 1)), Vec((5, 2)))
    assert model.interval() == expected
    assert tuple(sorted(model.interval(), key=lambda v: v.coords)) == tuple(
        brute_interval(model)
    )


def test_validate_cone_without_axis_aligned_row(tmp_path):
    path = tmp_path / "skew.json"
    path.write_text(
        json.dumps(
            {
                "kind": "lattice_cone",
                "dim": 2,
                "cone_rows": [[1, -2], [-1, 3]],
                "unit": [5, 2],
                "compressions": [
                    {"focus": [0, 0], "matrix": [[0, 0], [0, 0]]},
                    {"focus": [5, 2], "matrix": [[1, 0], [0, 1]]},
                ],
            }
        )
    )
    out = tmp_path / "report.json"
    assert main(["validate", str(path), "--samples", "8", "--output", str(out)]) == 0


def test_seeded_box_keeps_propagated_universes(bundled):
    # Seeding only tightens the starting box, so the enumerated lists agree
    # with an independent scan on every bundled cone and height.
    for name in LATTICE:
        model, _ = bundled[name]
        for n in (1, 2):
            box = 4 * n + 2
            scan = [
                Vec(pt)
                for pt in product(range(-box, box + 1), repeat=model.dim)
                if model.leq(Vec(pt), model.unit.scale(n))
                and model.leq(model.unit.scale(-n), Vec(pt))
            ]
            got = signed_box(model, n)
            assert sorted(got, key=lambda v: v.coords) == sorted(scan, key=lambda v: v.coords)


def test_matrix_interval_not_enumerable():
    with pytest.raises(NotEnumerableError):
        MatrixModel(2).interval()
    with pytest.raises(NotEnumerableError):
        MatrixModel(2).positive_universe(2)


def test_matrix_order_is_psd_order():
    model = MatrixModel(2)
    half = SymMat.from_rows([["1/2", 0], [0, "1/2"]])
    assert model.is_positive(half)
    assert model.leq(half, model.unit)
    assert not model.leq(model.unit, half)
    assert not model.is_positive(SymMat.from_rows([[0, 1], [1, 0]]))


@pytest.mark.parametrize("name", LATTICE + MATRIX)
def test_bundled_models_are_unital_groups(name, bundled):
    report = validate_unital_group(bundled[name][0])
    assert report.ok, report.first_failure()


def test_nonpointed_cone_fails_antisymmetry():
    model = LatticeConeModel(2, ((1, 0),), Vec((1, 0)))
    report = validate_unital_group(model)
    assert not report.ok
    assert report.first_failure().name == "order_antisymmetric"
    assert report.first_failure().witness == {"cone_rank": 1, "dim": 2}
    # its interval is a line: the report ends before enumerating it
    assert [c.name for c in report.clauses] == [
        "order_translation_invariant",
        "order_antisymmetric",
        "unit_positive_nonzero",
    ]


def test_interval_over_the_point_cap_raises():
    model = LatticeConeModel(2, ((1, 0), (0, 1)), Vec((3000, 3000)))
    with pytest.raises(UnboundedIntervalError, match="too large"):
        validate_unital_group(model)


def test_lattice_substructure_antisymmetry_is_derived_from_the_cone_rank(bundled):
    """A substructure is ordered by its carrier's cone: order_antisymmetric
    passes when the cone rows have full rank and otherwise names that
    premise."""

    def antisymmetry(sub):
        clauses = validate_unital_group(sub).clauses
        return next(c for c in clauses if c.name == "order_antisymmetric")

    _, base = bundled["m1"]
    for v in base.foci:
        for sub in (image_substructure(base, v), commutant_substructure(base, v)):
            assert antisymmetry(sub).status == "pass", (v, sub.kind)
    model = LatticeConeModel(2, ((1, 0),), Vec((1, 0)))
    sub = Substructure(model, "image", model.unit, model.unit, identity_endo(model))
    clause = antisymmetry(sub)
    assert (clause.status, clause.witness) == ("fail", {"premise": "cone_pointed"})


def test_nonpositive_unit_fails():
    model = LatticeConeModel(1, ((1,),), Vec((-1,)))
    report = validate_unital_group(model)
    assert not report.ok
    names = [c.name for c in report.clauses if not c.ok]
    assert "unit_positive_nonzero" in names


def test_lattice_leq_rejects_mixed_dimensions(bundled):
    model, _ = bundled["m1"]
    assert model.leq(Vec((0, 0)), model.unit)
    with pytest.raises(ValueError):
        model.leq(Vec((0, 0)), Vec((1, 0, 0)))


def test_lattice_endomorphism_apply_and_compose(bundled):
    model, _ = bundled["m1"]
    swap = endo_from_int_matrix(model, [[0, 1], [1, 0]])
    first = endo_from_int_matrix(model, [[1, 0], [0, 0]])
    assert swap.apply(Vec((2, -3))) == Vec((-3, 2))
    # compose applies the right factor first
    assert compose(first, swap).apply(Vec((2, -3))) == Vec((-3, 0))
    assert compose(swap, swap).matrix == identity_endo(model).matrix


def test_endo_equal_is_extensional_on_finite_models(bundled):
    model, _ = bundled["m2"]
    a = endo_from_int_matrix(model, [[1]])
    b = identity_endo(model)
    assert endo_equal(model, a, b)
    assert not endo_equal(model, a, zero_endo(model))


@pytest.mark.parametrize("name", LATTICE)
def test_endo_equal_matches_interval_sweep(name, bundled):
    # the declared maps, their pairwise compositions and every substructure
    # projector, compared on the model and inside each substructure
    model, base = bundled[name]
    subs = [
        build(base, v) for v in base.foci for build in (image_substructure, commutant_substructure)
    ]
    declared = [base.j(p) for p in base.foci]
    maps = declared + [compose(a, b) for a in declared for b in declared]
    maps += [sub.projector for sub in subs]
    seen = set()
    for structure in (model, *subs):
        for a in maps:
            for b in maps:
                verdict = endo_equal(structure, a, b)
                assert verdict == interval_sweep_equal(structure, a, b), (structure, a, b)
                seen.add((verdict, a.matrix == b.matrix))
    # maps that differ on the model but agree on a substructure
    assert seen == {(True, True), (True, False), (False, False)}


def test_image_of_a_map_that_moves_its_focus_fails_unit_order_unit():
    # J_v(v) = (2, 0) != v, so v is no member of its image substructure
    model = LatticeConeModel(2, ((1, 0), (0, 1)), Vec((2, 2)))
    v = Vec((1, 1))
    base = base_from_family(model, [(v, endo_from_int_matrix(model, [[1, 1], [0, 0]]))])
    rep = validate_unital_group(image_substructure(base, v))
    clause = next(c for c in rep.clauses if c.name == "unit_order_unit")
    assert (clause.status, clause.checked, clause.witness) == ("fail", 1, {"unit": v})


def test_image_whose_unit_is_not_an_order_unit_fails_unit_order_unit():
    # J_(1,0) = identity: the image of (1,0) is all of Z^2, where no multiple
    # of (1,0) dominates (0,1); the signed box cut by (1,0) cannot show it
    model = LatticeConeModel(2, ((1, 0), (0, 1)), Vec((1, 1)))
    v = Vec((1, 0))
    base = base_from_family(model, [(v, endo_from_int_matrix(model, [[1, 0], [0, 1]]))])
    rep = validate_unital_group(image_substructure(base, v))
    clause = next(c for c in rep.clauses if c.name == "unit_order_unit")
    assert (clause.status, clause.witness) == ("fail", {"cone_row": (0, 1)})


def test_lattice_endo_rejects_fractional_image():
    model = LatticeConeModel(1, ((1,),), Vec((2,)))
    halve = Endomorphism(model, ((1,),), den=2)
    with pytest.raises(ValueError):
        halve.apply(Vec((1,)))
    assert halve.apply(Vec((2,))) == Vec((1,))


def test_conjugation_endo_matches_sandwich():
    model = MatrixModel(2)
    p = SymMat.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    j = conjugation_endo(model, p)
    g = SymMat.from_rows([[1, 0], [0, 3]])
    assert j.apply(g) == SymMat.from_rows([[1, 1], [1, 1]])
    # idempotent conjugator gives an idempotent map
    assert endo_equal(model, compose(j, j), j)
    assert endo_equal(model, conjugation_endo(model, model.unit), identity_endo(model))


@st.composite
def rational_symmats(draw):
    n = draw(st.integers(1, 4))
    entries = st.fractions(-9, 9, max_denominator=6)
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    return SymMat.from_rows([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])


@settings(max_examples=200, deadline=None)
@example(SymMat.from_rows([["1/2", "1/2"], ["1/2", "1/2"]]))
@example(SymMat.from_rows([["1/3", "1/2", 0], ["1/2", 2, -1], [0, -1, "5/4"]]))
@given(rational_symmats())
def test_conjugation_endo_matches_the_basis_products(p):
    """The entries of conjugation_endo against P B P for each basis matrix
    B, on any symmetric rational p: projection or not, any denominator."""
    model = MatrixModel(p.dim)
    assert conjugation_endo(model, p) == basis_conjugation_endo(model, p)


def test_vectorize_devectorize_roundtrip():
    model = MatrixModel(3)
    g = SymMat.from_rows([[1, 2, 0], [2, "1/3", -1], [0, -1, 5]])
    assert model.devectorize(*model.vectorize(g)) == g
    assert model.vec_dim == 6


def breadth_first_sums(structure, bound: int) -> set:
    """Every sum of nonzero interval elements that stays below bound*unit.

    The reach set grown one summand at a time from 0: an independent oracle
    for models._interval_sums, which decides the same set in one sweep.
    """
    interval = [e for e in structure.interval() if not e.is_zero()]
    top = structure.unit.scale(bound)
    reach = {structure.zero}
    frontier = [structure.zero]
    while frontier:
        nxt = []
        for s in frontier:
            for e in interval:
                t = s + e
                if t in reach or not structure.leq(t, top):
                    continue
                reach.add(t)
                nxt.append(t)
        frontier = nxt
    return reach


def assert_one_sweep_matches_breadth_first(structure):
    for bound in (1, 2):
        box = structure.positive_universe(bound)
        want = breadth_first_sums(structure, bound)
        got = _interval_sums(structure, box)
        assert [g.coords in got for g in box] == [g in want for g in box]
        assert got <= {g.coords for g in box}


@settings(max_examples=40, deadline=None)
@given(cone=seeded_cones())
@example(cone=([(1, -2), (-1, 3)], (5, 2)))
@example(cone=([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], (0, 0, 2)))
def test_interval_sums_match_breadth_first_on_cones(cone):
    # the examples are a skewed Z^2 cone and the square-pyramid cone in Z^3
    rows, unit = cone
    model = LatticeConeModel(len(unit), tuple(rows), Vec(unit))
    try:
        interval = model.interval()
    except NotEnumerableError:
        assume(False)
    assume(len(interval) <= 40)
    assert_one_sweep_matches_breadth_first(model)


@pytest.mark.parametrize("name", ["m1", "m5"])
def test_interval_sums_match_breadth_first_on_substructures(name, bundled):
    model, base = bundled[name]
    for v in base.foci:
        for build in (image_substructure, commutant_substructure):
            assert_one_sweep_matches_breadth_first(build(base, v))


def test_no_box_outlives_its_model(monkeypatch, tmp_path, capsys):
    """The interval and height boxes and the order memo are kept on the
    model that asked for them, so once a report returns, nothing but this
    test holds a box or the memo of its model, and the model itself is
    gone."""

    boxes, memos = [], []
    real = models.range_band
    real_init = LatticeConeModel.__init__

    def tracked(*args):
        # LatticeConeModel.positive_universe keeps tuple() of this, which is this tuple itself
        boxes.append(tuple(real(*args)))
        return boxes[-1]

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        memos.append(self._order)

    monkeypatch.setattr(models, "range_band", tracked)
    monkeypatch.setattr(LatticeConeModel, "__init__", init)
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(corner_model((4, 1))))  # a model no other test keeps
    gc.collect()
    gc.disable()
    try:
        before = sum(type(o) is LatticeConeModel for o in gc.get_objects())
        assert main(["report", str(path), "--seed", "0"]) == 0
        after = sum(type(o) is LatticeConeModel for o in gc.get_objects())
        # one reference from `boxes` or `memos`, one from getrefcount's argument
        held = [sys.getrefcount(kept[i]) - 2 for kept in (boxes, memos) for i in range(len(kept))]
    finally:
        gc.enable()
    capsys.readouterr()
    assert boxes and any(memos) and held == [0] * (len(boxes) + len(memos))
    assert after == before


def _lattice_index(vectors, dim: int) -> int:
    """The index _directedness_exact finds for `vectors` as the interval of
    Z^dim with the standard cone: 1 on a pass, else the witness."""
    model = LatticeConeModel(dim, tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)),
                             Vec((1,) * dim))
    rep = Report("directedness")
    _directedness_exact(model, [Vec(v) for v in vectors], rep)
    clause = rep.clauses[0]
    assert clause.name == "interval_generates_group"
    return 1 if clause.ok else clause.witness["lattice_index"]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), scale=st.integers(1, 3))
def test_lattice_index_matches_the_minors_gcd(data, dim, scale):
    """The index from a Z-basis is the gcd of the maximal minors, index > 1
    included: scale multiplies it by scale**dim."""
    entry = st.integers(-4, 4)
    vectors = data.draw(st.lists(st.tuples(*[entry] * dim), max_size=5))
    vectors = [tuple(scale * x for x in v) for v in vectors]
    assert _lattice_index(vectors, dim) == minors_gcd_index(vectors, dim)


@pytest.mark.parametrize(
    "vectors,index",
    [
        ([(2, 0), (0, 1)], 2),
        ([(3, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 1)], 3),
        ([(2, 2), (4, 0), (0, 4)], 8),
        # no two of the three generate the group the three do
        ([(4, 6), (6, 3), (2, 0)], 6),
        ([(6, 0), (0, 6), (4, 4)], 12),
        ([(1, 1, 0), (2, 2, 0)], 0),
        ([], 0),
    ],
)
def test_lattice_index_on_known_groups(vectors, index):
    dim = len(vectors[0]) if vectors else 1
    assert minors_gcd_index(vectors, dim) == index
    assert _lattice_index(vectors, dim) == index


def test_flat_interval_index_takes_one_determinant(monkeypatch, tmp_path, capsys):
    """Z^3 with unit (k, k, 0) spans a plane: the index is 0 from one
    determinant at most, where the gcd of minors took one per triple of the
    interval's 48 nonzero elements at k = 6, and validate names the clause
    at k = 20, where the minors took more than a minute."""
    calls = []
    real = linalg.int_det
    monkeypatch.setattr(linalg, "int_det", lambda m: calls.append(m) or real(m))
    model = LatticeConeModel(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), Vec((6, 6, 0)))
    clause = validate_unital_group(model).first_failure()
    assert clause.name == "interval_generates_group"
    assert clause.witness == {"lattice_index": 0}
    assert len(calls) <= 1

    doc = {
        "kind": "lattice_cone",
        "dim": 3,
        "cone_rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "unit": [20, 20, 0],
        "compressions": [
            {"focus": [0, 0, 0], "matrix": [[0, 0, 0]] * 3},
            {"focus": [20, 20, 0], "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        ],
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(path), "--samples", "8"]) == 1
    assert json.loads(capsys.readouterr().out)["first_failure"] == "interval_generates_group"

"""The compatibility battery, meets, substructures, morphisms, theorems."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from compbase import cli, compatibility, compression, matrix_model, models

from compbase import (
    BATTERY_CONDITIONS,
    CompatReport,
    Endomorphism,
    MatrixModel,
    MeetUndefinedError,
    MembershipError,
    SymMat,
    Vec,
    base_from_family,
    base_from_projections,
    commutant_absorption_check,
    commutant_substructure,
    compat_battery,
    compose,
    conjugate,
    conjugation_endo,
    direct_product_report,
    image_substructure,
    in_commutant,
    load_model,
    mackey_decompositions,
    meet,
    morphism_report,
    omp_report,
    projection_base,
    restricted_base,
    substructure_report,
    theorem_report,
    trivial_base,
    zero_endo,
)
from compbase.effect_algebra import mackey_triples
from compbase.reporting import render_json
from conftest import (
    FIXTURES_DIR,
    MODELS_DIR,
    corner_model,
    draw_signed,
    interval_sweep_equal,
    signed_box,
    unshared_substructure_report,
)

DIAG0 = SymMat.from_rows([[1, 0], [0, 0]])
DIAG1 = SymMat.from_rows([[0, 0], [0, 1]])
HPLUS = SymMat.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])


def test_battery_has_eight_conditions(bundled):
    _, base = bundled["m1"]
    rep = compat_battery(base, Vec((1, 0)), Vec((0, 1)))
    assert tuple(name for name, _ in rep.conditions) == BATTERY_CONDITIONS
    assert len(BATTERY_CONDITIONS) == 8


def test_battery_all_true_for_orthogonal_coordinates(bundled):
    _, base = bundled["m1"]
    rep = compat_battery(base, Vec((1, 0)), Vec((0, 1)))
    assert rep.compatible and rep.agree


def test_battery_all_false_for_skew_projections(bundled):
    _, base = bundled["m3"]
    rep = compat_battery(base, DIAG0, HPLUS)
    assert not rep.compatible
    assert rep.agree, rep.values
    assert all(v is False for v in rep.values.values())


def test_battery_trivial_pairs_are_compatible(bundled):
    model, base = bundled["m3"]
    for q in base.foci:
        for p in (model.zero, model.unit, q):
            rep = compat_battery(base, p, q)
            assert rep.compatible and rep.agree, (p, q)


def test_battery_agreement_and_symmetry_on_declared_pairs(bundled):
    for name in ("m1", "m5", "m3"):
        _, base = bundled[name]
        for p in base.foci:
            for q in base.foci:
                fwd = compat_battery(base, p, q)
                assert fwd.agree, (name, p, q, fwd.values)
                rev = compat_battery(base, q, p)
                assert fwd.compatible == rev.compatible


def test_battery_agreement_fails_on_an_asymmetric_pair():
    """A negative control for the mirror test of battery_agreement.  With
    the battery of (p, q) all true and that of (q, p) split, (p, q) agrees
    with itself, and only comparing it with its mirror fails the clause at
    (p, q)."""

    _, base = load_model(MODELS_DIR / "m1.json")  # a base of its own: the memo is edited
    p, q = Vec((0, 1)), Vec((1, 0))
    assert base.foci.index(p) < base.foci.index(q)
    split = tuple((name, i == 0) for i, name in enumerate(BATTERY_CONDITIONS))
    base._memo[("battery", p, q)] = CompatReport(p, q, tuple((n, True) for n in BATTERY_CONDITIONS))
    base._memo[("battery", q, p)] = CompatReport(q, p, split)
    assert compat_battery(base, p, q).agree and not compat_battery(base, q, p).agree
    clause = compatibility._battery_clause(base)
    assert not clause.ok
    assert clause.witness == {"p": p, "q": q, "reason": "asymmetric"}


def test_battery_rejects_non_focus(bundled):
    _, base = bundled["m1"]
    with pytest.raises(MembershipError):
        compat_battery(base, Vec((1, 0)), Vec((2, 0)))


def test_commutant_membership(bundled):
    _, base = bundled["m3"]
    assert in_commutant(base, DIAG0, SymMat.from_rows([[5, 0], [0, 7]]))
    assert not in_commutant(base, DIAG0, HPLUS)
    assert commutant_absorption_check(base, DIAG0, DIAG1).ok
    assert commutant_absorption_check(base, DIAG0, HPLUS).ok


def two_map_split(base, p, g) -> bool:
    """g == J_p(g) + J_{u-p}(g), by applying the two maps.

    The body in_commutant had before it became membership in the commutant
    substructure, kept as its oracle.
    """
    comp = base.complement(p)
    if not base.contains_focus(comp):
        raise MembershipError("the complement of p escapes the base")
    return base.j(p).apply(g) + base.j(comp).apply(g) == g


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except MembershipError as exc:
        return type(exc)


def _lattice_base(name, bundled, tmp_path):
    if name == "z3":
        path = tmp_path / "z3.json"
        path.write_text(json.dumps(corner_model((1, 1, 1))))
        return load_model(path)
    if name in bundled:
        return bundled[name]
    return load_model(FIXTURES_DIR / f"{name}.json")


# the fixtures add foci whose commutant is proper, and one whose complement
# is not a focus
SPLIT_BASES = ("m1", "m5", "z3", "corrupt_focus_outside_interval", "corrupt_missing_closure")


@pytest.mark.parametrize("name", SPLIT_BASES)
def test_in_commutant_matches_two_map_split(name, bundled, tmp_path):
    model, base = _lattice_base(name, bundled, tmp_path)
    for p in base.foci:
        for g in signed_box(model, 2):
            want = outcome(two_map_split, base, p, g)
            assert outcome(in_commutant, base, p, g) == want, (p, g)


def test_in_commutant_matches_two_map_split_on_sampled_matrices(bundled):
    model, base = bundled["m3"]
    rng = random.Random(0)
    seen = set()
    for p in base.foci:
        comp = model.unit - p
        for i in range(20):
            a, b = (draw_signed(model.dim, rng, 2) for _ in range(2))
            g = a if i % 2 else conjugate(p, a) + conjugate(comp, b)
            verdict = in_commutant(base, p, g)
            assert verdict == two_map_split(base, p, g), (p, g)
            seen.add(verdict)
    assert seen == {True, False}


def old_battery_values(base, p, q) -> dict:
    """compat_battery's eight values on a declared finite base, by the bodies
    it had before: the interval sweep for map equality, a Mackey search
    within the foci as a sub-effect algebra, and the two-map split."""
    structure = base.structure
    jp, jq = base.j(p), base.j(q)
    pq = compose(jp, jq)
    r = jp.apply(q)
    return {
        "commute": interval_sweep_equal(structure, pq, compose(jq, jp)),
        "jp_q_eq_jq_p": r == jq.apply(p),
        "jp_q_le_q": structure.leq(r, q),
        "mackey_in_interval": bool(mackey_decompositions(structure, p, q)),
        "mackey_in_base": bool(mackey_decompositions(structure, p, q, within=base.foci)),
        "exists_common_focus": any(
            interval_sweep_equal(structure, pq, base.j(s)) for s in base.foci
        ),
        "jp_q_in_base": base.contains_focus(r),
        "q_in_commutant": two_map_split(base, p, q),
    }


@pytest.mark.parametrize(
    "name",
    ("m1", "m5", "z3", "corrupt_focus_outside_interval", "corrupt_missing_closure",
     "corrupt_nonnormal_foci", "corrupt_swapped_foci"),
)
def test_battery_matches_old_bodies_on_declared_pairs(name, bundled, tmp_path):
    _, base = _lattice_base(name, bundled, tmp_path)
    for p in base.foci:
        for q in base.foci:
            want = outcome(old_battery_values, base, p, q)
            got = outcome(lambda: compat_battery(base, p, q).values)
            assert got == want, (p, q)


def test_substructure_universes_are_cut_once(bundled):
    _, base = bundled["m1"]
    for build in (image_substructure, commutant_substructure):
        sub = build(base, Vec((1, 0)))
        assert build(base, Vec((1, 0))) is sub
        assert restricted_base(base, sub) is restricted_base(base, sub)
        assert sub.interval() is sub.interval()
        assert sub.positive_universe(2) is sub.positive_universe(2)
        assert sub.positive_universe(2) != sub.interval()


# declared foci k, and the distinct substructures among the 2k (kind, focus)
# sections: C(v) = C(u - v), and image(u) = C(0) = C(u) is the whole group
FOCI_AND_DISTINCT_SUBSTRUCTURES = {"m1": (4, 4), "m5": (4, 4), "m3": (6, 8), "m4": (12, 17)}


@pytest.mark.parametrize("name", list(FOCI_AND_DISTINCT_SUBSTRUCTURES))
def test_report_builds_one_substructure_per_kind_and_focus(name, monkeypatch, capsys):
    # the substructure and product sections of each focus share the image
    # and commutant substructures; the validations run once for the
    # declared base, then once per distinct substructure and restricted base
    built = []
    real = compatibility.Substructure

    def counted_substructure(*args, **kwargs):
        sub = real(*args, **kwargs)
        # on a matrix model, only those of the declared base carry premises;
        # the base of all projections keeps nothing and builds on each ask
        if sub.finite or sub.premises:
            built.append((sub.kind, sub.v))
        return sub

    monkeypatch.setattr(compatibility, "Substructure", counted_substructure)
    calls = {"unital": 0, "base": 0}

    def counted(key, f):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)

        return wrapper

    unital = counted("unital", models.validate_unital_group)
    based = counted("base", compression.validate_compression_base)
    monkeypatch.setattr(models, "validate_unital_group", unital)
    monkeypatch.setattr(cli, "validate_unital_group", unital)
    monkeypatch.setattr(compression, "validate_compression_base", based)
    monkeypatch.setattr(cli, "validate_compression_base", based)

    assert cli.main(["report", str(MODELS_DIR / f"{name}.json"), "--samples", "8"]) == 0
    capsys.readouterr()
    k, distinct = FOCI_AND_DISTINCT_SUBSTRUCTURES[name]
    assert len(set(built)) == len(built) == 2 * k
    assert calls == {"unital": 1 + distinct, "base": 1 + distinct}


def _planted_complement_base():
    """The four diagonal projections of MatrixModel(2), each with its
    conjugation, but J_{diag(0,1)} claims the conjugator 0: its stored
    matrix no longer matches it, so the premises of both commutants fail."""

    model = MatrixModel(2)
    maps = {p: conjugation_endo(model, p) for p in (model.zero, DIAG0, DIAG1, model.unit)}
    stray = maps[DIAG1]
    maps[DIAG1] = Endomorphism(model, stray.matrix, stray.den, model.zero)
    return base_from_family(model, maps.items())


def test_failing_premises_keep_a_substructure_its_own_validations():
    # C(diag(1,0)) and C(diag(0,1)) share a projector, unit and restricted
    # foci, but their first unmet premises differ; a report shares a
    # validation only between substructures whose premises all hold
    shared, unshared = _planted_complement_base(), _planted_complement_base()
    texts = {}
    for v in shared.foci:
        for kind in ("image", "commutant"):
            got = render_json(substructure_report(shared, v, kind)[2])
            assert got == render_json(unshared_substructure_report(unshared, v, kind)[2])
            texts[kind, v] = got
    c0, c1 = (commutant_substructure(shared, v) for v in (DIAG0, DIAG1))
    assert (c0.projector, c0.unit) == (c1.projector, c1.unit)
    assert texts["commutant", DIAG0] != texts["commutant", DIAG1]
    assert '"premise": "complement_matrix_matches_conjugator"' in texts["commutant", DIAG0]
    assert '"premise": "matrix_matches_conjugator"' in texts["commutant", DIAG1]


def test_meet_of_nested_foci(bundled):
    _, base = bundled["m1"]
    assert meet(base, Vec((1, 0)), Vec((1, 1))) == Vec((1, 0))
    assert meet(base, Vec((1, 0)), Vec((1, 0))) == Vec((1, 0))


def test_meet_of_orthogonal_projections(bundled):
    model, base = bundled["m3"]
    assert meet(base, DIAG0, DIAG1) == model.zero
    assert meet(base, HPLUS, model.unit) == HPLUS


def test_meet_undefined_for_incompatible_pair(bundled):
    _, base = bundled["m3"]
    with pytest.raises(MeetUndefinedError):
        meet(base, DIAG0, HPLUS)


@pytest.mark.parametrize("name", ["m1", "m3"])
def test_meet_clause_runs_the_battery_once_per_pair(name, bundled, monkeypatch):
    from collections import Counter

    from compbase import compatibility

    calls = Counter()
    real_battery = compatibility.compat_battery

    def counted_battery(base, p, q):
        calls[p, q] += 1
        return real_battery(base, p, q)

    monkeypatch.setattr(compatibility, "compat_battery", counted_battery)
    _, base = bundled[name]
    clause = compatibility._meet_clause(base)
    assert clause.ok
    assert set(calls.values()) == {1}
    assert len(calls) == len(base.foci) ** 2


@pytest.mark.parametrize("name", ["m1", "m3"])
def test_meet_clause_opens_no_meet_stream(name, bundled, monkeypatch):
    """Every pair's greatest lower bound is decided without a sample stream:
    swept on a finite model, derived from the projections on the matrix model."""
    from compbase import CheckConfig

    tags = []
    real_rng = CheckConfig.rng

    def counted_rng(self, tag=""):
        tags.append(tag)
        return real_rng(self, tag)

    monkeypatch.setattr(CheckConfig, "rng", counted_rng)
    _, base = bundled[name]
    rep = theorem_report(base)
    meets = [c for c in rep.clauses if c.name == "compatible_meet"]
    assert len(meets) == 1 and meets[0].ok and meets[0].checked > 1
    assert tags.count("meet") == 0


def test_image_substructure_shape(bundled):
    model, base = bundled["m1"]
    v = Vec((1, 0))
    sub, rbase, rep = substructure_report(base, v, "image")
    assert rep.ok, rep.first_failure()
    assert sub.unit == v
    assert set(sub.interval()) == {Vec((0, 0)), Vec((1, 0))}
    assert set(rbase.foci) == {Vec((0, 0)), Vec((1, 0))}


def test_commutant_substructure_shape(bundled):
    model, base = bundled["m1"]
    v = Vec((1, 0))
    sub, rbase, rep = substructure_report(base, v, "commutant")
    assert rep.ok, rep.first_failure()
    assert sub.unit == model.unit
    # every focus of this product model is compatible with v
    assert set(rbase.foci) == set(base.foci)


def test_matrix_commutant_keeps_commuting_foci(bundled):
    model, base = bundled["m3"]
    sub = commutant_substructure(base, DIAG0)
    rbase = restricted_base(base, sub)
    assert set(rbase.foci) == {model.zero, DIAG0, DIAG1, model.unit}
    assert sub.is_member(SymMat.from_rows([[3, 0], [0, -2]]))
    assert not sub.is_member(HPLUS)


def test_matrix_image_substructure_reports_clean(bundled):
    _, base = bundled["m3"]
    for v in (DIAG0, HPLUS):
        sub, rbase, rep = substructure_report(base, v, "image")
        assert rep.ok, (v, rep.first_failure())
        assert sub.unit == v


def test_substructure_rejects_unknown_kind(bundled):
    _, base = bundled["m1"]
    with pytest.raises(ValueError):
        substructure_report(base, Vec((1, 0)), "kernel")
    with pytest.raises(MembershipError):
        image_substructure(base, Vec((2, 0)))


def test_identity_is_a_based_morphism(bundled):
    from compbase import identity_endo

    model, base = bundled["m1"]
    rep = morphism_report(model, base, model, base, identity_endo(model))
    assert rep.ok, rep.first_failure()


def test_zero_map_is_not_unit_preserving(bundled):
    model, base = bundled["m1"]
    rep = morphism_report(model, base, model, base, zero_endo(model))
    assert not rep.ok
    assert rep.first_failure().name == "preserves_unit"


def test_compression_is_a_morphism_onto_its_image(bundled):
    model, base = bundled["m1"]
    v = Vec((1, 0))
    sub_c = commutant_substructure(base, v)
    sub_h = image_substructure(base, v)
    rep = morphism_report(
        sub_c,
        restricted_base(base, sub_c),
        sub_h,
        restricted_base(base, sub_h),
        base.j(v),
    )
    assert rep.ok, rep.first_failure()


@pytest.mark.parametrize("name,v", [("m1", Vec((1, 0))), ("m5", Vec((0, 2)))])
def test_direct_product_decomposition_lattice(name, v, bundled):
    _, base = bundled[name]
    rep = direct_product_report(base, v)
    assert rep.ok, rep.first_failure()


def test_direct_product_decomposition_matrix(bundled):
    _, base = bundled["m3"]
    rep = direct_product_report(base, DIAG0)
    assert rep.ok, rep.first_failure()


@pytest.mark.parametrize("name", ("m1", "m2", "m5", "m3", "m4"))
def test_theorem_report_clean_on_declared_bases(name, bundled):
    _, base = bundled[name]
    rep = theorem_report(base)
    assert rep.ok, (name, rep.first_failure())


def test_theorem_report_clean_on_intensional_base(bundled, fast_cfg):
    model, _ = bundled["m3"]
    rep = theorem_report(projection_base(model, fast_cfg))
    assert rep.ok, rep.first_failure()
    # the zero/unit maps are exact matrix identities; everything else is sampled
    for c in rep.clauses:
        expected = "pass" if c.name == "zero_and_unit_maps" else "certified"
        assert c.status == expected, c.name


def test_theorem_report_clause_names(bundled):
    _, base = bundled["m2"]
    rep = theorem_report(base)
    names = [c.name for c in rep.clauses]
    for expected in (
        "zero_and_unit_maps",
        "family_shape",
        "kernel_complement_fixpoint",
        "absorption_equivalences",
        "commutant_absorption",
        "battery_agreement",
        "compatible_meet",
        "omp_bounded",
        "omp_orthocomplement",
        "omp_orthogonal_join",
        "omp_orthomodular",
        "omp_sharp",
        "omp_principal",
    ):
        assert expected in names


def test_omp_report_alone(bundled):
    _, base = bundled["m5"]
    rep = omp_report(base)
    assert rep.ok, rep.first_failure()


def test_trivial_base_theorems(bundled):
    model, _ = bundled["m2"]
    rep = theorem_report(trivial_base(model))
    assert rep.ok, rep.first_failure()


def _searched_mackey_in_base(base, p, q) -> bool:
    """mackey_in_base by the search over the foci that every declared base
    ran before the candidate rule."""
    triples = mackey_triples(base.structure, p, q, base.foci, base.contains_focus)
    return next(triples, None) is not None


def _assert_candidate_matches_search(base):
    for p in base.foci:
        for q in base.foci:
            got = compat_battery(base, p, q).values["mackey_in_base"]
            assert got == _searched_mackey_in_base(base, p, q), (p, q)


@pytest.mark.parametrize("name", ("m3", "m4"))
def test_candidate_mackey_rule_matches_the_search(name, bundled):
    """On a declared base of projections mackey_in_base reads the one
    candidate (J_p(q), p - J_p(q), q - J_p(q)); the search agrees."""
    _, base = bundled[name]
    assert compatibility._projection_foci(base)
    _assert_candidate_matches_search(base)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((2, 3)), st.integers(0, 2**32), st.lists(st.booleans(), min_size=16, max_size=16)
)
def test_candidate_mackey_rule_matches_the_search_on_two_frames(dim, seed, keep):
    """Declared bases of coordinate projections of two random Cayley frames:
    each frame's projections commute, the other frame's mostly do not, so
    compatible and incompatible pairs both occur.  Each base keeps a drawn
    set of masks, closed under complement (the battery's commutant needs
    it) but not under differences, so some J_p(q) is a focus while p - J_p(q)
    is not."""
    rng = random.Random(seed)
    frames = [matrix_model.cayley_orthogonal(dim, rng) for _ in range(2)]
    top = 2**dim - 1
    projections = {
        matrix_model.frame_sandwich(frame, [(k >> i) & 1 for i in range(dim)])
        for n, frame in enumerate(frames)
        for k in range(top + 1)
        if keep[8 * n + min(k, top - k)]
    }
    base = base_from_projections(MatrixModel(dim), projections)
    assert compatibility._projection_foci(base)
    _assert_candidate_matches_search(base)


def test_a_focus_that_is_no_projection_keeps_the_search(monkeypatch):
    """The library base of corrupt_matrix_half_focus has the focus I/2: every
    battery searches its foci for mackey_in_base."""
    _, base = load_model(FIXTURES_DIR / "corrupt_matrix_half_focus.json")
    searches = []
    real = compatibility.mackey_triples

    def counted(*args):
        searches.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(compatibility, "mackey_triples", counted)
    assert not compatibility._projection_foci(base)
    _assert_candidate_matches_search(base)
    assert Counter(searches) == Counter((p, q) for p in base.foci for q in base.foci)

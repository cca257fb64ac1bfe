"""Retractions, compressions, and the compression-base laws."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from compbase import (
    CheckConfig,
    Endomorphism,
    LatticeConeModel,
    MatrixModel,
    MembershipError,
    NotEnumerableError,
    SymMat,
    Vec,
    base_from_family,
    compressible_group_report,
    conjugation_endo,
    direct_compression_base,
    endo_from_int_matrix,
    enumerate_retractions,
    is_compression,
    is_direct,
    kernel_complement_check,
    load_model,
    projection_base,
    retraction_certificate,
    trivial_base,
    validate_compression_base,
    zero_endo,
)
from compbase import compatibility, compression, linalg
from compbase.cli import main
from conftest import FIXTURES_DIR, LATTICE, MODELS_DIR, corner_model, seeded_cones


def test_declared_compressions_are_retractions(bundled):
    model, base = bundled["m1"]
    for p in base.foci:
        cert = retraction_certificate(model, base.j(p), declared_focus=p)
        assert cert.valid
        assert cert.focus == p
        below = [e for e in model.interval() if model.leq(e, p)]
        assert dict(cert.checks)["fixes_below_focus"].checked == len(below)


def test_swap_map_is_not_a_retraction(bundled):
    model, _ = bundled["m1"]
    swap = endo_from_int_matrix(model, [[0, 1], [1, 0]])
    cert = retraction_certificate(model, swap)
    assert not cert.valid
    failed = {name for name, res in cert.checks if not res.ok}
    assert "fixes_below_focus" in failed


def test_declared_focus_mismatch_is_flagged(bundled):
    model, base = bundled["m1"]
    p, q = Vec((1, 0)), Vec((0, 1))
    cert = retraction_certificate(model, base.j(p), declared_focus=q)
    assert not cert.valid
    assert dict(cert.checks)["declared_focus_matches"].witness == {
        "declared": q,
        "actual": p,
    }


def test_matrix_retraction_checks_need_conjugator():
    model = MatrixModel(2)
    bare = Endomorphism(model, conjugation_endo(model, model.unit).matrix)
    with pytest.raises(ValueError):
        retraction_certificate(model, bare)


def test_projection_conjugations_are_retractions(bundled):
    model, base = bundled["m3"]
    for p in base.foci:
        cert = retraction_certificate(model, base.j(p), declared_focus=p)
        assert cert.valid, (p, [n for n, r in cert.checks if not r.ok])


def test_is_compression_on_declared_bases(bundled):
    for name in ("m1", "m5", "m3"):
        model, base = bundled[name]
        for p in base.foci:
            assert is_compression(model, base.j(p)).ok


def test_non_compression_endomorphism_detected(bundled):
    model, _ = bundled["m1"]
    # (x, y) -> (y, y) kills (1, 0) yet (1, 0) is not below u - focus = 0
    collapse = endo_from_int_matrix(model, [[0, 1], [0, 1]])
    res = is_compression(model, collapse)
    assert not res.ok
    e = res.witness["effect"]
    assert collapse.apply(e) == model.zero
    assert not model.leq(e, model.unit - collapse.apply(model.unit))


def test_conjugation_by_non_projection_is_not_a_compression():
    model = MatrixModel(2)
    soft = SymMat.from_rows([["1/2", 0], [0, 0]])
    res = is_compression(model, conjugation_endo(model, soft))
    assert not res.ok


def test_kernel_complement_exchange(bundled):
    model, base = bundled["m1"]
    p = Vec((1, 0))
    comp = model.unit - p
    assert kernel_complement_check(model, base.j(p), base.j(comp)).ok
    # a map is not its own complement once it has a proper kernel
    assert not kernel_complement_check(model, base.j(p), base.j(p)).ok


def test_kernel_complement_exchange_matrix(bundled):
    model, base = bundled["m3"]
    p = next(f for f in base.foci if f not in (model.zero, model.unit))
    jp = base.j(p)
    jc = base.j(model.unit - p)
    assert kernel_complement_check(model, jp, jc).ok
    assert not kernel_complement_check(model, jp, jp).ok


def test_retraction_counts(bundled):
    counts = {"m1": 4, "m2": 2, "m5": 4}
    for name, expected in counts.items():
        model, base = bundled[name]
        certs = enumerate_retractions(model)
        assert len(certs) == expected
        assert {c.focus for c in certs} == set(base.foci)


def exhaustive_retractions(model):
    """Every retraction, by assigning interval elements to a whole basis.

    The |E|^dim search that enumerate_retractions replaced, kept as its
    oracle: a retraction maps the interval into itself, so images drawn
    from the interval for a basis drawn from the interval cover every
    candidate; non-integral matrices are dropped, the rest certified.
    """

    if model.unit.is_zero():
        return (retraction_certificate(model, zero_endo(model)),)
    interval = model.interval()
    basis: list = []
    for e in interval:
        if e.is_zero():
            continue
        cand = basis + [e]
        if linalg.rank([v.coords for v in cand]) == len(cand):
            basis.append(e)
        if len(basis) == model.dim:
            break
    if len(basis) < model.dim:
        raise ValueError("interval does not span the rational carrier")
    adj, det = linalg.invert(linalg.transpose([v.coords for v in basis]))
    seen = set()
    certs = []
    for images in itertools.product(interval, repeat=model.dim):
        m = linalg.mat_mul(linalg.transpose([v.coords for v in images]), adj)
        if any(x % det for row in m for x in row):
            continue
        m = tuple(tuple(x // det for x in row) for row in m)
        if m in seen:
            continue
        seen.add(m)
        cert = retraction_certificate(model, Endomorphism(model, m))
        if cert.valid:
            certs.append(cert)
    certs.sort(key=lambda c: (c.focus.sort_key(), c.endo.matrix))
    return tuple(certs)


def _census(enumerate_, model):
    """(focus, matrix, check bits) per certificate, or the error raised."""

    try:
        certs = enumerate_(model)
    except ValueError as exc:
        return str(exc)
    return [(c.focus, c.endo.matrix, tuple((n, r.ok) for n, r in c.checks)) for c in certs]


@st.composite
def z2_cones(draw):
    """The standard cone, the m5 cone or a drawn cone in Z^2, with a unit."""

    kind = draw(st.sampled_from(("standard", "m5", "drawn")))
    if kind == "drawn":
        return draw(seeded_cones())
    s, t = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if kind == "standard":
        return [(1, 0), (0, 1)], (s, t)
    # row values (s, t) at the unit
    return [(1, 0), (1, 1)], (s, t - s)


@settings(max_examples=30, deadline=None)
@given(cone=z2_cones())
@example(cone=([(1, 0), (0, 1)], (1, 1)))  # m1
@example(cone=([(1,)], (2,)))  # m2
@example(cone=([(1, 0), (1, 1)], (1, 1)))  # m5
@example(cone=([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (2, 2, 2)))
@example(cone=([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], (0, 0, 2)))
@example(cone=([(-1, 2), (-2, 0)], (-3, 3)))
@example(cone=([(0, 1), (1, 0), (0, -1)], (1, 1)))
def test_focus_first_search_matches_exhaustive_oracle(cone):
    # the examples: m1, m2, m5, Z^3, the square pyramid, a cone that is not
    # a product of chains, and a unit outside its cone (an empty interval)
    rows, unit = cone
    model = LatticeConeModel(len(unit), tuple(rows), Vec(unit))
    try:
        interval = model.interval()
    except NotEnumerableError:
        assume(False)
    assume(len(interval) <= 30)
    got = _census(enumerate_retractions, model)
    assert got == _census(exhaustive_retractions, model)


@pytest.mark.parametrize("unit,retractions,budget", [((3, 3, 3), 8, 64), ((8, 8), 4, 32)])
def test_retraction_search_certificate_budget(
    unit, retractions, budget, monkeypatch, tmp_path, capsys
):
    # 2^dim declared foci each take one certificate in the family clause;
    # the rest are the search's.  An |E|^dim search certifies thousands.
    calls = []
    real = compression.retraction_certificate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(compression, "retraction_certificate", counted)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(corner_model(unit)))
    assert main(["retractions", str(path)]) == 0
    census = json.loads(capsys.readouterr().out)["sections"]["04_compressible"]["clauses"][0]
    assert census["checked"] == retractions
    assert len(calls) <= budget


@pytest.mark.parametrize("name", LATTICE)
def test_compressible_group_laws(name, bundled):
    report = compressible_group_report(bundled[name][0])
    assert report.ok, report.first_failure()


@pytest.mark.parametrize("name", ("m1", "m2", "m3", "m4", "m5"))
def test_declared_bases_validate(name, bundled):
    report = validate_compression_base(bundled[name][1])
    assert report.ok, report.first_failure()


@pytest.mark.parametrize("name", ("m1", "m3"))
def test_trivial_base_validates(name, bundled):
    model, _ = bundled[name]
    base = trivial_base(model)
    assert len(base.foci) == 2
    assert validate_compression_base(base).ok


def test_projection_base_validates(fast_cfg):
    base = projection_base(MatrixModel(2), fast_cfg)
    report = validate_compression_base(base)
    assert report.ok, report.first_failure()
    # every clause on the intensional base is sampled, never exhaustive
    assert all(c.status == "certified" for c in report.clauses)


def test_only_the_base_of_all_projections_keeps_a_config(bundled, fast_cfg):
    assert projection_base(MatrixModel(2)).cfg == CheckConfig()
    assert projection_base(MatrixModel(2), fast_cfg).cfg is fast_cfg
    for name, (model, base) in bundled.items():
        assert base.cfg is trivial_base(model).cfg is None, name
        for v in base.foci:
            sub = compatibility.image_substructure(base, v)
            assert compatibility.restricted_base(base, sub).cfg is None, (name, v)


def test_projection_base_refuses_a_focus_of_another_dimension():
    base = projection_base(MatrixModel(2))
    assert base.contains_focus(SymMat.identity(2))
    assert not base.contains_focus(SymMat.identity(3))
    assert not base.contains_focus(Vec((1, 0)))
    with pytest.raises(MembershipError):
        base.j(SymMat.identity(3))


def test_fixture_bases_fail_their_intended_clause():
    expected = {
        "corrupt_swapped_foci": "family_member_compression",
        "corrupt_missing_closure": "foci_sub_effect_algebra",
        "corrupt_nonnormal_foci": "foci_normal_subalgebra",
        "corrupt_focus_outside_interval": "family_member_compression",
        "corrupt_matrix_half_focus": "foci_normal_subalgebra",
        "corrupt_matrix_missing_complement": "foci_sub_effect_algebra",
    }
    for stem, clause in expected.items():
        _, base = load_model(FIXTURES_DIR / f"{stem}.json")
        report = validate_compression_base(base)
        assert not report.ok, stem
        assert report.first_failure().name == clause, stem


@st.composite
def matrix_family_mutants(draw):
    """m3 or m4 with one non-trivial projection perturbed at one entry, or dropped.

    A perturbation adds a nonzero rational at (i, j), and at (j, i) too off
    the diagonal, so the file stays symmetric.
    """
    doc = json.loads((MODELS_DIR / draw(st.sampled_from(("m3.json", "m4.json")))).read_text())
    dim = doc["dim"]
    eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
    zero = [[0] * dim for _ in range(dim)]
    inner = [k for k, p in enumerate(doc["projections"]) if p not in (eye, zero)]
    k = draw(st.sampled_from(inner))
    if draw(st.booleans()):
        del doc["projections"][k]
        return doc
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    num = draw(st.integers(-4, 4).filter(bool))
    delta = Fraction(num, draw(st.integers(1, 4)))
    rows = doc["projections"][k]
    for a, b in {(i, j), (j, i)}:
        x = Fraction(rows[a][b]) + delta
        rows[a][b] = x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return doc


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(doc=matrix_family_mutants())
def test_matrix_family_mutants_never_validate(tmp_path, doc):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path), "--samples", "8", "--output", str(tmp_path / "out.json")])
    assert code in (1, 2)


def test_duplicate_focus_rejected_by_family_constructor(bundled):
    model, base = bundled["m1"]
    pairs = [(p, base.j(p)) for p in base.foci]
    with pytest.raises(ValueError, match="duplicate"):
        base_from_family(model, pairs + [pairs[0]])


def test_direct_base_of_product_model(bundled):
    model, base = bundled["m1"]
    direct_base, report = direct_compression_base(model)
    assert report.ok, report.first_failure()
    assert set(direct_base.foci) == set(base.foci)


def test_hadamard_conjugation_is_not_direct():
    model = MatrixModel(2)
    hplus = SymMat.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    res = is_direct(model, conjugation_endo(model, hplus))
    assert not res.ok
    e = res.witness["effect"]
    j = conjugation_endo(model, hplus)
    assert model.is_positive(e) and model.leq(e, model.unit)
    assert not model.leq(j.apply(e), e)


def test_matrix_directness_is_decided_and_draws_nothing(monkeypatch):
    """Decided on the 3 members of the projected basis of MatrixModel(2):
    the identity passes on all 3, conjugation by hplus fails at the first."""
    from compbase import matrix_model

    draws = []
    real_draw = matrix_model.draw_effect

    def counted_draw(dim, rng):
        draws.append(dim)
        return real_draw(dim, rng)

    monkeypatch.setattr(matrix_model, "draw_effect", counted_draw)
    model = MatrixModel(2)
    res = is_direct(model, conjugation_endo(model, model.unit))
    assert (res.status, res.checked) == ("pass", 3)
    hplus = SymMat.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    res = is_direct(model, conjugation_endo(model, hplus))
    assert (res.status, res.checked) == ("fail", 1)
    assert draws == []


def test_only_trivial_matrix_conjugations_are_direct(bundled):
    # directness forces the focus central, and the matrix model has a
    # trivial center, so exactly the conjugations by 0 and the unit survive
    model, base = bundled["m3"]
    for p in base.foci:
        expected = p in (model.zero, model.unit)
        assert is_direct(model, base.j(p)).ok == expected

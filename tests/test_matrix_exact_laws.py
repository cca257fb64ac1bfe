"""The matrix path's exact rules: derived verdicts, their oracles, their cost.

Each law that compression, compatibility and models derive from the
conjugator of a map is checked here against the seeded sweep it replaced
(the sampled oracles in conftest), on m3, m4, every restricted base of
them, seeded projection families and the two matrix negative controls.
Each premise of the derived rules has a negative case that fails on it.
"""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from compbase import (
    CheckConfig,
    Endomorphism,
    MatrixModel,
    MembershipError,
    SymMat,
    base_from_family,
    base_from_projections,
    commutant_substructure,
    compat_battery,
    conjugation_endo,
    direct_product_report,
    identity_endo,
    image_substructure,
    is_compression,
    is_direct,
    kernel_complement_check,
    linalg,
    load_model,
    matrix_model,
    projection_base,
    retraction_certificate,
    theorem_report,
    validate_compression_base,
    validate_unital_group,
    zero_endo,
)
from compbase import cli, compatibility, compression
from conftest import (
    FIXTURES_DIR,
    MATRIX,
    MODELS_DIR,
    sampled_compression,
    sampled_direct,
    sampled_interval_characterization,
    sampled_interval_laws,
    sampled_kernel_complement,
    sampled_meet_glb,
    sampled_morphism_order,
    sampled_normality,
    sampled_product_laws,
    sampled_retraction_laws,
    sampled_theorem_laws,
    sampled_unital_group,
)

CFG = CheckConfig(samples=8, seed=0)
# the heights of the oracles' drawn elements (draw_positive): HEIGHT with
# CFG, AGREE_HEIGHT in the agreement tests on seeded configs
HEIGHT = 3
AGREE_HEIGHT = 2
MATRIX_FIXTURES = ("corrupt_matrix_half_focus", "corrupt_matrix_missing_complement")

# the theorem sweeps that matrix bases decide from the conjugator of each focus
THEOREM_RULES = {
    "family_shape": compatibility._family_shape_clause,
    "kernel_complement_fixpoint": compatibility._kernel_complement_clause,
    "commutant_absorption": compatibility._commutant_absorption_clause,
    "omp_sharp": lambda base: compatibility._omp_sharp(base, 0, None),
    "omp_principal": lambda base: compatibility._omp_principal(base, 0, None),
}

E11 = SymMat.from_rows([[1, 0], [0, 0]])
E22 = SymMat.from_rows([[0, 0], [0, 1]])
HALF = SymMat.from_rows([["1/2", 0], [0, "1/2"]])
HPLUS = SymMat.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])


def restricted_bases(base):
    """The image and commutant restricted base of every focus of a declared base."""

    for v in base.foci:
        yield compatibility.restricted_base(base, compatibility.image_substructure(base, v))
        yield compatibility.restricted_base(base, compatibility.commutant_substructure(base, v))


def declared_matrix_bases():
    """(label, base) for m3, m4 and each of their restricted bases."""

    out = []
    for name in MATRIX:
        _, base = load_model(MODELS_DIR / f"{name}.json")
        out.append((name, base))
        out += [(f"{name}/{i}", rb) for i, rb in enumerate(restricted_bases(base))]
    return out


DECLARED = declared_matrix_bases()


@pytest.mark.parametrize("label,base", DECLARED, ids=[label for label, _ in DECLARED])
def test_declared_matrix_bases_decide_their_laws(label, base):
    for clause in (
        compression._matrix_normality_clause(base),
        compression._family_clause(base),
        compatibility._meet_clause(base),
    ):
        assert clause.status == "pass", (label, clause.name, clause.witness)


def test_declared_matrix_validation_draws_no_effects(monkeypatch):
    """family_member_compression, the unital-group axioms, the whole base
    validation and every theorem sweep draw nothing, and every theorem
    sweep reads pass."""

    draws = []
    for name in ("draw_effect", "cayley_orthogonal"):
        real = getattr(matrix_model, name)

        def counted(*args, _name=name, _real=real):
            draws.append(_name)
            return _real(*args)

        monkeypatch.setattr(matrix_model, name, counted)
    for label, base in DECLARED:
        clause = compression._family_clause(base)
        assert (clause.status, len(draws)) == ("pass", 0), label
        for clause in validate_unital_group(base.structure).clauses:
            assert clause.status == "pass", (label, clause.name, clause.witness)
        assert validate_compression_base(base).ok, label
        for clause in theorem_report(base).clauses:
            assert clause.status == "pass", (label, clause.name, clause.witness)
        assert draws == [], label
    # the intensional base still samples its foci, but no effects
    intensional = projection_base(MatrixModel(3), CFG)
    assert compression._family_clause(intensional).status == "certified"
    assert theorem_report(intensional).ok
    assert set(draws) == {"cayley_orthogonal"}


@pytest.mark.parametrize("name", MATRIX)
def test_declared_matrix_report_samples_only_the_base_of_all_projections(
    name, monkeypatch, capsys
):
    """report on m3 and m4: effects are drawn only inside 03_theorems_sampled,
    the substructure, morphism, product and direct streams are never
    opened, and every clause outside that section reads pass."""

    inside = []
    real_theorems = cli.theorem_report

    def theorems(base):
        inside.append(base.intensional)
        try:
            return real_theorems(base)
        finally:
            inside.pop()

    outside = []
    effects = matrix_model.draw_effect

    def draw_effect(*args):
        outside.append(not any(inside))
        return effects(*args)

    tags = []
    real_rng = CheckConfig.rng

    def rng(self, tag=""):
        tags.append(tag)
        return real_rng(self, tag)

    monkeypatch.setattr(cli, "theorem_report", theorems)
    monkeypatch.setattr(matrix_model, "draw_effect", draw_effect)
    monkeypatch.setattr(CheckConfig, "rng", rng)
    argv = ["report", str(MODELS_DIR / f"{name}.json"), "--samples", "16", "--seed", "3"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not any(outside)
    sampled_tags = ("substructure:", "morphism:", "product", "direct")
    assert tags and not [t for t in tags if t.startswith(sampled_tags)]
    for section, report in doc["sections"].items():
        if section != "03_theorems_sampled":
            for clause in report["clauses"]:
                assert clause["status"] == "pass", (section, clause["name"])


def test_half_focus_fails_normality_on_its_exact_witness():
    _, base = load_model(FIXTURES_DIR / "corrupt_matrix_half_focus.json")
    clause = compression._matrix_normality_clause(base)
    half = SymMat.from_rows([["1/2", 0], [0, "1/2"]])
    quarter = SymMat.from_rows([["1/4", 0], [0, "1/4"]])
    assert clause.status == "fail"
    assert clause.witness == {"d": quarter, "m1": half, "m2": half}


def test_normality_fails_on_a_focus_that_is_not_a_projection():
    """A declared focus outside the interval cannot be reached by the product
    sweep; the projection premise names it instead."""

    model = MatrixModel(1)
    two = SymMat.from_rows([[2]])
    base = base_from_projections(model, [model.zero, two])
    clause = compression._matrix_normality_clause(base)
    assert clause.status == "fail"
    assert clause.witness == {"element": two, "reason": "not a projection"}


def test_greatest_lower_bound_is_derived_only_through_a_projection():
    model = MatrixModel(2)
    half = SymMat.from_rows([["1/2", 0], [0, "1/2"]])
    quarter = SymMat.from_rows([["1/4", 0], [0, "1/4"]])
    e11 = SymMat.from_rows([[1, 0], [0, 0]])
    glb = compatibility._greatest_lower_bound
    assert glb(model, e11, model.unit, e11) and glb(model, model.unit, e11, e11)
    # J_{I/2}(I) = I/4 lies below I/2 and I, but I/2 is a greater lower bound
    assert not glb(model, half, model.unit, quarter)


def test_matrix_image_whose_unit_is_not_an_order_unit_fails_unit_order_unit():
    """J_v = identity for v = diag(1, 0): the image is the whole model, and
    diag(0, 1) is a member that no multiple of v dominates.  The interval
    clauses fail too, naming their premises, and their oracles find the
    laws broken."""

    model = MatrixModel(2)
    e11 = SymMat.from_rows([[1, 0], [0, 0]])
    identity = identity_endo(model)
    pairs = [(model.zero, zero_endo(model)), (e11, identity), (model.unit, identity)]
    sub = compatibility.image_substructure(base_from_family(model, pairs), e11)
    clauses = {c.name: c for c in validate_unital_group(sub).clauses}
    clause = clauses["unit_order_unit"]
    assert clause.status == "fail"
    assert not model.leq(clause.witness["element"], e11.scale(1000))
    oracles = sampled_unital_group(sub, CFG, HEIGHT)
    assert not oracles["unit_order_unit"].ok
    for name, premise in (
        ("interval_sampled", "conjugator_is_focus"),
        ("interval_generates_positives", "unit_order_unit"),
    ):
        assert (clauses[name].status, clauses[name].witness) == ("fail", {"premise": premise})
        assert not oracles[name].ok, name


def test_compression_on_an_image_needs_the_conjugator_below_its_unit():
    """On the image of v = diag(1, 1, 0), conjugation by the projection p onto
    (1, 0, 1) kills diag(0, 1, 0), which is not below v - p v p: p v != p."""

    model = MatrixModel(3)
    v = SymMat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    base = base_from_projections(model, [model.zero, v, model.unit - v, model.unit])
    sub = compatibility.image_substructure(base, v)
    j = conjugation_endo(model, SymMat.from_rows([["1/2", 0, "1/2"], [0, 0, 0], ["1/2", 0, "1/2"]]))
    e22 = SymMat.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert j.apply(e22) == model.zero and not model.leq(e22, v - j.apply(v))
    clause = is_compression(sub, j)
    assert clause.status == "fail" and clause.witness == {"premise": "focus_below_unit"}


def test_intensional_memo_does_not_grow_with_the_budget():
    model, _ = load_model(MODELS_DIR / "m4.json")
    sizes = []
    for samples in (16, 64):
        base = projection_base(model, CheckConfig(samples=samples, seed=0))
        assert theorem_report(base).ok
        sizes.append(len(base._memo) + len(base._pairs))
    assert sizes == [0, 0]


def test_battery_is_decided_only_when_foci_and_unit_are_projections():
    """The image of 1/2 under J_(1/2) = identity in dim 1 has unit 1/2: the
    battery agrees on its foci {0, 1/2}, but r = p q p is no decision there."""

    model = MatrixModel(1)
    half = SymMat.from_rows([["1/2"]])
    identity = identity_endo(model)
    pairs = [(model.zero, zero_endo(model)), (half, identity), (model.unit, identity)]
    base = base_from_family(model, pairs)
    sub = compatibility.image_substructure(base, half)
    clause = compatibility._battery_clause(compatibility.restricted_base(base, sub))
    assert (clause.status, clause.checked) == ("certified", 4)


def _diagonal_family(model, e11=None, e22=None):
    """The base {0, e11, e22, I} of conjugations, with e11 or e22 mapped to
    the given map instead."""

    pairs = [
        (model.zero, zero_endo(model)),
        (E11, e11 or conjugation_endo(model, E11)),
        (E22, e22 or conjugation_endo(model, E22)),
        (model.unit, identity_endo(model)),
    ]
    return base_from_family(model, pairs)


def _premise(clause):
    """The premise a derived clause names, under the sweep's own witness keys."""

    witness = clause.witness
    return witness.get("witness", witness)["premise"]


def test_conjugation_by_half_fails_every_derived_theorem_on_its_premise():
    _, base = load_model(FIXTURES_DIR / "corrupt_matrix_half_focus.json")
    for name, rule in THEOREM_RULES.items():
        clause = rule(base)
        assert clause.status == "fail", name
        assert _premise(clause) == "conjugator_idempotent", name


def test_complement_map_off_v_minus_p_fails_on_its_premise():
    """J_{e22} conjugates by (1,1)/2: the kernel exchange and commutant
    absorption name the premise, and the sampled oracle finds the law broken."""

    model = MatrixModel(2)
    base = _diagonal_family(model, e22=conjugation_endo(model, HPLUS))
    oracles = sampled_theorem_laws(base, CFG, HEIGHT)
    for name in ("kernel_complement_fixpoint", "commutant_absorption"):
        clause = THEOREM_RULES[name](base)
        assert clause.status == "fail", name
        assert _premise(clause) == "complement_conjugator", name
        assert not oracles[name].ok, name


def test_sections_fail_on_a_complement_map_off_v_minus_p():
    """The same base at e11: the commutant's interval characterization and
    the product laws that need J_{e22} to be conjugation by e22 name that
    premise, and their sampled oracles find the laws broken."""

    model = MatrixModel(2)
    base = _diagonal_family(model, e22=conjugation_endo(model, HPLUS))
    premise = {"premise": "complement_conjugator"}
    sub = commutant_substructure(base, E11)
    clause = compatibility._interval_characterization_clause(base, sub)
    assert (clause.status, clause.witness) == ("fail", premise)
    assert not sampled_interval_characterization(base, sub, CFG).ok
    product = {c.name: c for c in direct_product_report(base, E11).clauses}
    oracles = sampled_product_laws(base, E11, CFG, HEIGHT)
    for name in ("eta_fixes_image", "kappa_fixes_image", "pairing_surjective"):
        assert (product[name].status, product[name].witness) == ("fail", premise), name
        assert not oracles[name].ok, name


def test_morphism_order_needs_the_map_to_be_its_conjugation():
    """g -> -g, stored with the conjugator I: order preservation names the
    premise, and its sampled oracle finds a positive sent below 0."""

    model = MatrixModel(2)
    base = _diagonal_family(model)
    negated = tuple(tuple(-x for x in row) for row in linalg.identity(3))
    phi = Endomorphism(model, negated, conjugator=model.unit)
    clause = compatibility.morphism_report(model, base, model, base, phi).clauses[0]
    premise = {"premise": "matrix_matches_conjugator"}
    assert (clause.name, clause.status, clause.witness) == ("order_preserving", "fail", premise)
    assert not sampled_morphism_order(model, model, phi, CFG, HEIGHT).ok


def test_family_shape_needs_the_conjugator_to_be_the_focus():
    """The identity fixes e11 and is idempotent, but it kills nothing below e22."""

    model = MatrixModel(2)
    base = _diagonal_family(model, e11=identity_endo(model))
    clause = compatibility._family_shape_clause(base)
    assert clause.witness == {"focus": E11, "premise": "conjugator_is_focus"}
    assert not sampled_theorem_laws(base, CFG, HEIGHT)["family_shape"].ok


def _kernel_cases():
    """(label, structure, J, J', the premise J and J' break) for kernel_complement_check."""

    model = MatrixModel(2)
    conj = {p: conjugation_endo(model, p) for p in (model.zero, E11, E22, HALF)}
    identity = Endomorphism(model, linalg.identity(3))
    _, half_base = load_model(FIXTURES_DIR / "corrupt_matrix_half_focus.json")
    everything = _diagonal_family(model, e11=identity_endo(model))
    yield "map_not_its_conjugation", model, Endomorphism(
        model, identity.matrix, conjugator=E11
    ), conj[E22], "matrix_matches_conjugator"
    yield "half", model, conj[HALF], conj[HALF], "conjugator_idempotent"
    yield "same_map", model, conj[E11], conj[E11], "complement_conjugator"
    yield "complement_not_its_conjugation", model, conj[E11], Endomorphism(
        model, identity.matrix, conjugator=E22
    ), "complement_matrix_matches_conjugator"
    # the image of I/2 has unit I/2, so v - 0 is no projection
    yield "half_image", compatibility.image_substructure(half_base, HALF), conj[
        model.zero
    ], conj[HALF], "complement_conjugator_idempotent"
    # on the image of e11 under the diagonal family, e22 is not below the unit
    diagonal_image = compatibility.image_substructure(_diagonal_family(model), E11)
    yield "focus_outside_image", diagonal_image, conj[E22], conj[model.zero], "focus_below_unit"
    # J_{e11} = identity: its image holds e22, which is not e11 g e11
    yield "image_leaves_its_corner", compatibility.image_substructure(everything, E11), conj[
        model.zero
    ], conj[E11], "members_in_corner"


KERNEL_CASES = list(_kernel_cases())


@pytest.mark.parametrize(
    "label,structure,j,j_comp,premise", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES]
)
def test_kernel_exchange_fails_on_each_premise(label, structure, j, j_comp, premise):
    clause = kernel_complement_check(structure, j, j_comp)
    assert (clause.status, clause.witness) == ("fail", {"premise": premise})


def test_kernel_exchange_outside_the_corner_is_really_broken():
    """The law itself fails where members_in_corner does: e22 is a member
    killed by J_0 and not fixed by J_{e11}."""

    label, structure, j, j_comp, _ = KERNEL_CASES[-1]
    assert not sampled_kernel_complement(structure, j, j_comp, CFG, HEIGHT).ok


# ---------------------------------------------------------------------------
# exact rules against the sampled oracles


def closed_projection_family(dim: int, seed: int, frames: int):
    """The projections of `frames` Cayley frames, closed under I - p,
    orthogonal sums and products of commuting members; None if the closure
    grows past 64 members."""

    rng = random.Random(seed)
    model = MatrixModel(dim)
    members = set()
    for _ in range(frames):
        frame = matrix_model.cayley_orthogonal(dim, rng)
        masks = product((0, 1), repeat=dim)
        members |= {matrix_model.frame_sandwich(frame, bits) for bits in masks}
    while len(members) <= 64:
        new = set()
        for a, b in product(members, repeat=2):
            new.add(model.unit - a)
            d = matrix_model.commuting_product(a, b)
            if d is not None:
                new.add(d)
                if d == model.zero:
                    new.add(a + b)
        if new <= members:
            return base_from_projections(model, members)
        members |= new
    return None


def assert_exact_rules_agree(base, cfg, normality_cfg):
    structure = base.structure
    for p in base.foci:
        j = base.j(p)
        checks = dict(retraction_certificate(structure, j).checks)
        for name, oracle in sampled_retraction_laws(structure, j, cfg, AGREE_HEIGHT).items():
            assert checks[name].ok == oracle.ok, (name, p)
        assert is_compression(structure, j).ok == sampled_compression(structure, j, cfg).ok, p
    exact = compression._matrix_normality_clause(base).ok
    assert exact == sampled_normality(base, normality_cfg).ok
    for p, q in product(base.foci, repeat=2):
        try:
            compatible = compat_battery(base, p, q).compatible
        except MembershipError:  # a complement outside the base
            continue
        if compatible:
            r = base.j(p).apply(q)
            exact = compatibility._greatest_lower_bound(structure, p, q, r)
            assert exact == sampled_meet_glb(structure, p, q, r, cfg).ok, (p, q)
    exact = {c.name: c.ok for c in validate_unital_group(structure).clauses}
    for name, oracle in sampled_unital_group(structure, cfg, AGREE_HEIGHT).items():
        assert exact[name] == oracle.ok, name


def assert_theorem_rules_agree(base, cfg):
    oracles = sampled_theorem_laws(base, cfg, AGREE_HEIGHT)
    for name, rule in THEOREM_RULES.items():
        assert rule(base).ok == oracles[name].ok, name
    structure = base.structure
    for p in base.foci:
        j = base.j(p)
        comp = base.j(base.complement(p))
        exact = kernel_complement_check(structure, j, comp).ok
        assert exact == sampled_kernel_complement(structure, j, comp, cfg, AGREE_HEIGHT).ok, p


def assert_section_rules_agree(base, seed, lenient=False):
    """is_direct and the rules of the substructure and product sections
    against their oracles, at every focus of a declared matrix base, on 8
    draws per oracle.

    Where lenient, a derived fail on an unmet premise may meet a passing
    oracle: such a fail is no counterexample, and on the half focus of
    corrupt_matrix_half_focus some of these laws hold without the premise
    (conjugation by I/2 is direct, and its image holds only 0).
    """

    structure = base.structure
    cfg = CheckConfig(samples=8, seed=seed)

    def agree(exact, oracle, label):
        if lenient and not exact.ok and "premise" in exact.witness:
            return
        assert exact.ok == oracle.ok, (label, exact.witness, oracle.witness)

    for p in base.foci:
        j = base.j(p)
        agree(is_direct(structure, j), sampled_direct(structure, j, cfg), ("direct", p))
        subs = [image_substructure(base, p)]
        if base.contains_focus(base.complement(p)):
            subs.append(commutant_substructure(base, p))
            exact = {c.name: c for c in direct_product_report(base, p).clauses}
            for name, oracle in sampled_product_laws(base, p, cfg, AGREE_HEIGHT).items():
                agree(exact[name], oracle, (name, p))
        for sub in subs:
            exact = compatibility._interval_characterization_clause(base, sub)
            oracle = sampled_interval_characterization(base, sub, cfg)
            agree(exact, oracle, ("interval_characterization", sub.kind, p))
            exact = {c.name: c for c in validate_unital_group(sub).clauses}
            for name, oracle in sampled_interval_laws(sub, cfg, AGREE_HEIGHT).items():
                agree(exact[name], oracle, (name, sub.kind, p))


@pytest.mark.parametrize("label,base", DECLARED, ids=[label for label, _ in DECLARED])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_exact_rules_agree_with_oracles_on_declared_bases(label, base, seed):
    cfg = CheckConfig(samples=16, seed=seed)
    assert_exact_rules_agree(base, cfg, cfg)
    assert_theorem_rules_agree(base, cfg)
    assert_section_rules_agree(base, seed)


@settings(max_examples=15, deadline=None)
@given(
    dim=st.sampled_from((2, 3)),
    frame_seed=st.integers(0, 2**16),
    frames=st.integers(1, 2),
    pick=st.integers(0, 2**8),
    seed=st.integers(0, 2**16),
)
def test_exact_rules_agree_with_oracles_on_seeded_families(dim, frame_seed, frames, pick, seed):
    base = closed_projection_family(dim, frame_seed, frames)
    if base is None:
        return
    cfg = CheckConfig(samples=16, seed=seed)
    assert validate_compression_base(base).ok
    assert_exact_rules_agree(base, cfg, cfg)
    assert_theorem_rules_agree(base, cfg)
    assert_section_rules_agree(base, seed)
    rbases = list(restricted_bases(base))
    rbase = rbases[pick % len(rbases)]
    assert_exact_rules_agree(rbase, cfg, cfg)
    assert_theorem_rules_agree(rbase, cfg)
    assert_section_rules_agree(rbase, seed)


@settings(max_examples=10, deadline=None)
@given(stem=st.sampled_from(MATRIX_FIXTURES), seed=st.integers(0, 2**16))
def test_exact_rules_agree_with_oracles_on_matrix_fixtures(stem, seed):
    _, base = load_model(FIXTURES_DIR / f"{stem}.json")
    cfg = CheckConfig(samples=16, seed=seed)
    # the sampled search meets the half focus twice in 1 of 9 draws; at 400
    # draws it misses with probability below 1e-15
    assert_exact_rules_agree(base, cfg, CheckConfig(samples=400, seed=seed))
    assert_section_rules_agree(base, seed, lenient=True)


def test_sampled_oracles_read_certified_on_m3():
    """Each oracle rests on drawn cases, so where it finds no witness it
    reads certified, never pass."""

    _, base = load_model(MODELS_DIR / "m3.json")
    structure = base.structure
    clauses = [sampled_normality(base, CFG)]
    clauses += sampled_unital_group(structure, CFG, HEIGHT).values()
    clauses += sampled_theorem_laws(base, CFG, HEIGHT).values()
    for p in base.foci:
        j = base.j(p)
        clauses += sampled_retraction_laws(structure, j, CFG, HEIGHT).values()
        clauses.append(sampled_compression(structure, j, CFG))
        clauses.append(
            sampled_kernel_complement(structure, j, base.j(base.complement(p)), CFG, HEIGHT)
        )
        if p in (structure.zero, structure.unit):  # the only direct conjugations
            clauses.append(sampled_direct(structure, j, CFG))
        clauses += sampled_product_laws(base, p, CFG, HEIGHT).values()
        for sub in (image_substructure(base, p), commutant_substructure(base, p)):
            clauses.append(sampled_interval_characterization(base, sub, CFG))
            clauses += sampled_interval_laws(sub, CFG, HEIGHT).values()
        for q in base.foci:
            if compat_battery(base, p, q).compatible:
                clauses.append(sampled_meet_glb(structure, p, q, j.apply(q), CFG))
    assert {c.status for c in clauses} == {"certified"}

"""Retractions, compressions, and compression bases.

A retraction is an order-preserving group endomorphism J whose focus
p = J(u) is an effect and which fixes every effect below its focus.  A
retraction is a compression when J(e) = 0 forces e <= u - p for effects e.
A compression base assigns a compression to each member of a sub-effect
algebra of foci, subject to a normality condition and a composition law.
Those two laws of the foci, and the test that a focus is an effect
(focus_in_interval: a member of the structure, positive and below its
unit), are effect_algebra's, which takes the structure itself.

Each law is stated once, as a law() over a universe of cases chosen from
the structure: the exhaustive interval, cone generators or declared foci
of a finite model, or seeded samples on the matrix model, whose maps are
conjugations g -> p g p.  A base law over its foci takes its universe from
CompressionBase.cases: the declared foci, or a Sample of projections on
the base of all projections, drawn by the CheckConfig that base keeps
(CompressionBase.cfg).  An exhaustive universe decides its law
(pass); a Sample spot checks a fact that holds analytically for that form
(certified) or searches a refutable claim for a counterexample.  A matrix
base's per-focus laws, the kernel exchange, normality and directness are
derived exactly (pass) from exactly checked premises, so a declared matrix
base draws no effects; a base keeps the premises of each focus once
(focus_premises), and the single-map checks it runs (the retraction
certificate, is_compression, kernel_complement_check) take them.  Each
focus's certificate and compression law are decided once per base and
kept (focus_certificate): 01_compression_base reads them on both kinds,
and on a lattice base their retraction checks are the premises the
per-focus theorem laws are derived from.

Certificates are frozen values (value.Value) compared by fields; a
CompressionBase is frozen but compared and hashed by identity, since the
compatibility module memoizes what it builds from a base on the base.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, Callable, Optional

from . import linalg, matrix_model
from .config import CheckConfig
from .effect_algebra import (
    MembershipError,
    center,
    is_effect,
    is_normal_subalgebra,
    is_sub_effect_algebra,
)
from .models import (
    Endomorphism,
    LatticeConeModel,
    MatrixModel,
    _members_in_corner,
    _order_unit_clause,
    compose,
    cone_cases,
    conjugation_endo,
    down_set,
    endo_equal,
    fixed_rows,
    identity_endo,
    zero_endo,
)
from .reporting import CERTIFIED, FAIL, PASS, Clause, Report, Sample, derived, law
from .value import Value


# ---------------------------------------------------------------------------
# single-map checks


class RetractionCertificate(Value):
    """Checked evidence that one endomorphism satisfies the retraction laws."""

    __slots__ = ("structure", "endo", "focus", "checks")

    def __init__(
        self, structure: Any, endo: Endomorphism, focus: Any, checks: tuple[tuple[str, Clause], ...]
    ) -> None:
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "endo", endo)
        object.__setattr__(self, "focus", focus)
        object.__setattr__(self, "checks", checks)

    @property
    def valid(self) -> bool:
        return all(res.ok for _, res in self.checks)

    def jsonable(self):
        return {
            "endo": self.endo,
            "focus": self.focus,
            "valid": self.valid,
            "checks": {name: res.ok for name, res in self.checks},
        }


def retraction_certificate(
    structure, endo: Endomorphism, declared_focus=None, premises=None
) -> RetractionCertificate:
    """Check the retraction laws of one map; the clauses become its checks.

    order_preserving is order_preserving() from the structure to itself.
    A finite structure sweeps fixes_below_focus on [0, focus] (down_set).
    On a matrix structure with unit v the map must be conjugation by a
    stored p, and both laws are derived from the exact clauses that p is a
    symmetric idempotent and that the map is g -> p g p (_conjugator_clauses,
    or the premises given, the first two of focus_premises).
    fixes_below_focus: 0 <= e <= p v p gives 0 <= (I-p) e (I-p) <=
    (I-p) p v p (I-p) = 0; with e = s^T s that is s (I-p) = 0, so e (I-p)
    = 0 and e = e p = p e = p e p.
    """

    focus = endo.apply(structure.unit)
    if structure.finite:
        premises = []
        order = order_preserving(structure, endo, structure)
        fixes = law(
            "fixes_below_focus",
            down_set(structure, focus),
            lambda e: endo.apply(e) == e,
            witness="effect",
        )
    else:
        premises = list(premises or _conjugator_clauses(structure, endo))
        order = order_preserving(structure, endo, structure, matches=premises[1])
        fixes = derived("fixes_below_focus", premises, "(I-p) e (I-p) = 0 gives e = p e p")
    clauses = premises + [
        Clause("additive", CERTIFIED, note="map is linear by representation"),
        order,
        law(
            "focus_in_interval",
            (focus,),
            lambda f: is_effect(structure, f),
            witness="focus",
        ),
        fixes,
    ]
    if declared_focus is not None:
        clauses.append(
            law(
                "declared_focus_matches",
                (focus,),
                lambda f: f == declared_focus,
                witness=lambda f: {"declared": declared_focus, "actual": f},
            )
        )
    checks = tuple((c.name, c) for c in clauses)
    return RetractionCertificate(structure, endo, focus, checks)


def order_preserving(source, phi: Endomorphism, target, prefix: str = "", matches=None) -> Clause:
    """phi maps source's positives to target's: the law of a retraction and
    of a morphism.  A finite source decides it over all of G on the
    generators of its positive cone (cone_cases).  On a matrix source phi
    conjugates by a stored p, and p g p = p^T g p is a congruence of g:
    derived from `matches`, the second of _conjugator_clauses."""

    name = prefix + "order_preserving"
    if source.finite:
        return law(
            name,
            cone_cases(source),
            lambda g: target.is_positive(phi.apply(g)),
            witness="positive",
            note="decided on the generators of the positive cone",
        )
    if matches is None:
        matches = _conjugator_clauses(source, phi)[1]
    return derived(name, (matches,), "p g p is a congruence of g")


def _conjugator_clauses(structure, endo: Endomorphism, prefix: str = "") -> list:
    p = endo.conjugator
    if p is None:
        raise ValueError("matrix-model checks need the conjugation form of the map")
    return [
        law(
            prefix + "conjugator_idempotent", (p,), matrix_model.is_projection, witness="conjugator"
        ),
        law(
            prefix + "matrix_matches_conjugator",
            (endo,),
            lambda e: endo_equal(structure.carrier, e, conjugation_endo(structure.carrier, p)),
            witness=lambda e: None,
            note="stored matrix agrees with conjugation by the stored projection",
        ),
    ]


def _focus_premises(structure, endo: Endomorphism) -> list:
    """The exact premises of the laws derived for J = J_p on a matrix
    structure with unit v: J is g -> p g p for a symmetric idempotent p
    (_conjugator_clauses), and p v = p (so v p = p and p v p = p)."""

    unit = structure.unit
    below = law(
        "focus_below_unit",
        (endo.conjugator,),
        lambda c: matrix_model.commuting_product(c, unit) == c,
        witness="conjugator",
    )
    return _conjugator_clauses(structure, endo) + [below]


def _complement_premises(structure, endo: Endomorphism, comp: Endomorphism) -> list:
    """J' conjugates by a symmetric idempotent, exactly v - p for J = J_p, so
    v is idempotent and p (v-p) = 0; and every member g is v g v."""

    unit = structure.unit
    return _conjugator_clauses(structure, comp, "complement_") + [
        law("complement_conjugator", (comp.conjugator,), lambda q: q == unit - endo.conjugator),
        _members_in_corner(structure, "members_in_corner"),
    ]


def focus_premises(base, p, *, focus: bool = False, comp: bool = False) -> tuple:
    """The premises a law derived at the focus p uses: that J_p is a
    retraction, with focus p when focus, and with comp the same of J_{u-p}.

    On a lattice structure they are the retraction checks of the
    focus_certificate of p (and of u - p), whose declared focus is p, so
    focus is implied; no rule derived from them reads the compression law.
    On a matrix structure with unit v they are _focus_premises of J_p (its
    _conjugator_clauses first), conjugator_is_focus when focus, and
    _complement_premises of J_{u-p} when comp: p is a symmetric idempotent
    with p v = p, so g -> p g p is a retraction (retraction_certificate).
    A declared base checks each part once per focus and keeps it."""

    structure = base.structure
    if structure.finite:
        premises = focus_certificate(base, p)[:-1]
        return premises + focus_certificate(base, base.complement(p))[:-1] if comp else premises
    j = base.j(p)

    def own_premises():
        is_focus = law("conjugator_is_focus", (j.conjugator,), lambda c: c == p)
        return (*_focus_premises(structure, j), is_focus)

    own = base.kept(("premises", p), own_premises)
    premises = own if focus else own[:-1]
    if comp:
        jc = base.j(base.complement(p))
        premises += base.kept(("complement", p), lambda: (*_complement_premises(structure, j, jc),))
    return premises


def focus_certificate(base, p) -> tuple:
    """The checks of J_p's retraction certificate with declared focus p,
    then its compression clause: all that 01_compression_base asks of the
    focus p (_family_clause).  A declared base decides them once per focus
    and keeps them under ("certificate", p); a matrix base derives them
    from the premises it keeps (focus_premises)."""

    def build():
        structure, j = base.structure, base.j(p)
        premises = None if structure.finite else focus_premises(base, p)
        cert = retraction_certificate(structure, j, p, premises and premises[:2])
        return (*(c for _, c in cert.checks), is_compression(structure, j, premises))

    return base.kept(("certificate", p), build)


def is_compression(structure, endo: Endomorphism, premises=None) -> Clause:
    """Does J(e) = 0 force e <= u - focus, for effects e?

    Finite structures sweep the interval.  On a matrix structure with unit
    v the law is derived from _focus_premises, or from the premises a base
    keeps for the focus (focus_premises), when given: the focus p v p is
    p.  If 0 <= e <= v and p e p = 0, then with e = s^T s, s p = 0, so
    e p = p e = 0 and e = (I-p) e (I-p) <= (I-p) v (I-p) = v - p.
    """

    unit = structure.unit
    if structure.finite:
        comp = unit - endo.apply(unit)
        return law(
            "compression",
            structure.interval(),
            lambda e: endo.apply(e) != structure.zero or structure.leq(e, comp),
            witness="effect",
        )
    note = "p e p = 0 gives e = (I-p) e (I-p) <= v - p"
    if premises is None:
        premises = _focus_premises(structure, endo)
    return derived("compression", premises, note)


def is_direct(structure, endo: Endomorphism) -> Clause:
    """Does J(e) <= e hold for every effect e?

    Finite structures sweep the interval.  On a matrix structure, with the
    premises that J = J_p for a symmetric idempotent p and that the unit v
    is an order unit: p e p <= e iff e commutes with p (e - p e p >= 0 with
    p (e - p e p) p = 0 gives (e - p e p) p = 0), so J is direct iff p
    commutes with the projected basis.  A member g that does not gives the
    witness v, or if v commutes, e = v/2 + g/(2c) in [0, v], c = sum |g_ij|.
    """

    if structure.finite:
        interval = structure.interval()
        return law("direct", interval, lambda e: structure.leq(endo.apply(e), e), witness="effect")
    premises = _conjugator_clauses(structure, endo) + [_order_unit_clause(structure)]
    if not all(c.ok for c in premises):
        return derived("direct", premises, "")
    p, unit = endo.conjugator, structure.unit

    def holds(g):
        if matrix_model.commuting_product(p, g) is not None:
            return True
        if matrix_model.commuting_product(p, unit) is None:
            return {"effect": unit}
        c = sum(abs(x) for row in g.num for x in row)
        return {"effect": unit.scale(Fraction(1, 2)) + g.scale(Fraction(g.den, 2 * c))}

    return law(
        "direct",
        (structure.project(b) for b in structure.carrier.basis()),
        holds,
        note="the conjugator commutes with every member, checked on the projected basis",
    )


def kernel_complement_check(
    structure, j: Endomorphism, j_comp: Endomorphism, premises=None
) -> Clause:
    """Mutual kernel/fixed-point exchange between complementary maps.

    For positive g: J'(g) = g exactly when J(g) = 0, and J'(g) = 0 exactly
    when J(g) = g.  A finite structure decides it over all of its group on
    the generators (models.cone_cases) of four cones of its positives, kept
    per map: J' fixes C ∩ ker J, J kills C ∩ ker(I - J'), and the same with
    J and J' exchanged.  Each conclusion is linear, so it holds on a cone
    exactly when it holds on the cone's generators.  On a matrix structure
    with unit v the law is derived from _focus_premises of J = J_p and
    _complement_premises of J' = J_{v-p}, or from the premises a base
    keeps for p (focus_premises with comp), when given: for g = s^T s a
    member, p g p = 0 <=> s p = 0 <=> g p = p g = 0 <=> (v-p) g (v-p) = g,
    the last because g = v g v expands (v-p) g (v-p) to
    g - p g - g p + p g p, and p (v-p) = 0 gives the way back.  The same
    holds with p and v - p exchanged, which gives the second half.
    """

    if not structure.finite:
        if premises is None:
            premises = _focus_premises(structure, j) + _complement_premises(structure, j, j_comp)
        return derived("kernel_complement", premises, "p g p = 0 <=> (v-p) g (v-p) = g")
    zero = structure.zero

    def holds(g):
        jg = j.apply(g)
        kg = j_comp.apply(g)
        if (kg == g) != (jg == zero):
            return {"positive": g, "direction": "fixed_by_complement_vs_killed"}
        if (kg == zero) != (jg == g):
            return {"positive": g, "direction": "killed_by_complement_vs_fixed"}
        return True

    cones = (j.matrix, fixed_rows(j_comp), j_comp.matrix, fixed_rows(j))
    positives = [g for eqs in cones for g in cone_cases(structure, None, eqs)]
    return law("kernel_complement", positives, holds)


# ---------------------------------------------------------------------------
# retraction enumeration on finite models


def enumerate_retractions(model: LatticeConeModel) -> tuple[RetractionCertificate, ...]:
    """Every retraction of a finite lattice model, as checked certificates.

    The search runs focus by focus.  Let J be a retraction with focus
    p = J(u).  J fixes every effect below p, so it fixes [0, p] and, being
    linear, all of span[0, p].  J is additive and order preserving, so
    0 <= e <= u gives 0 <= J(e) <= J(u) = p: J maps the interval into
    [0, p].

    So for each p in the interval, take a basis B0 of span[0, p] from
    [0, p] and extend it with interval elements to a basis of Q^n.  A
    candidate is the identity on B0 and sends each other basis vector to an
    element of [0, p].  It is discarded unless its matrix is integral and
    it sends u to p; every kept candidate is certified.  Each retraction
    turns up exactly once: on one basis, distinct image tuples give
    distinct maps, and maps found at distinct foci differ at u.  A focus
    whose [0, p] spans Q^n has one candidate, the identity, which is kept
    only at p = u; so [0, p] is built only until it reaches full rank, and
    a p other than u that reaches it is passed over.

    The search tries, summed over the foci p, |[0, p]|^(n - rank [0, p])
    candidates, where assigning interval elements to a whole basis would
    try |E|^n.
    """

    if model.unit.is_zero():
        return (retraction_certificate(model, zero_endo(model)),)

    effects = model.interval()
    spanning = [e.coords for e in effects]
    if len(_extend_basis([], spanning, model.dim)) < model.dim:
        raise ValueError("interval does not span the rational carrier")
    certs = []
    for p in effects:
        below, fixed = [], []
        for e in effects:
            if model.leq(e, p):
                below.append(e.coords)
                fixed = _extend_basis(fixed, (e.coords,), model.dim)
                if len(fixed) == model.dim:
                    break
        if len(fixed) == model.dim and p != model.unit:
            continue  # the one candidate, the identity, sends u to u
        basis = _extend_basis(fixed, spanning, model.dim)
        # with the images of the basis vectors as the columns of phi, the map
        # is phi B^-1 = phi adj(B) / det(B), and it sends u to phi w / det(B)
        # with w = adj(B) u
        adj, det = linalg.invert(linalg.transpose(basis))
        w = linalg.mat_vec(adj, model.unit.coords)
        target = tuple(det * x for x in p.coords)
        for free in itertools.product(below, repeat=model.dim - len(fixed)):
            phi = linalg.transpose(fixed + list(free))
            if linalg.mat_vec(phi, w) != target:
                continue
            m = linalg.mat_mul(phi, adj)
            if any(x % det for row in m for x in row):
                continue
            m = tuple(tuple(x // det for x in row) for row in m)
            cert = retraction_certificate(model, Endomorphism(model, m))
            if cert.valid:
                certs.append(cert)
    certs.sort(key=lambda c: (c.focus.sort_key(), c.endo.matrix))
    return tuple(certs)


def _extend_basis(basis: list, vectors, dim: int) -> list:
    """basis, extended by each of vectors in turn that is independent of it."""

    for v in vectors:
        if len(basis) == dim:
            break
        cand = basis + [v]
        if linalg.rank(cand) == len(cand):
            basis = cand
    return basis


def compressible_group_report(model: LatticeConeModel) -> Report:
    """Retraction census of a finite model, with the compressibility laws.

    Checks that distinct retractions have distinct foci, that every
    retraction is a compression, and that each retraction has a
    complementary partner exchanging kernels and fixed points.  A partner
    J' of J, with focus p, is looked up among the retractions with focus
    u - p, the only ones that can be one: J fixes p and kills u - p (both
    positive, J(u - p) = p - p), so J' kills p and fixes u - p, and
    J'(u) = u - p.
    """

    certs = enumerate_retractions(model)
    seen: set = set()
    by_focus: dict = {}
    for c in certs:
        by_focus.setdefault(c.focus, []).append(c)

    def first_with_focus(c) -> bool:
        fresh = c.focus not in seen
        seen.add(c.focus)
        return fresh

    def compressive(c):
        res = is_compression(model, c.endo)
        return res.ok or {"focus": c.focus, "witness": res.witness}

    def has_partner(c) -> bool:
        partners = by_focus.get(model.unit - c.focus, ())
        return any(kernel_complement_check(model, c.endo, d.endo).ok for d in partners)

    def at_focus(c):
        return {"focus": c.focus}

    clauses = [
        Clause(
            "retraction_census",
            PASS,
            checked=len(certs),
            note=f"{len(certs)} retractions",
            items=[{"focus": c.focus, "matrix": c.endo} for c in certs],
        ),
        law("unique_retraction_per_focus", certs, first_with_focus, witness=at_focus),
        law("every_retraction_compressive", certs, compressive),
        law(
            "complementary_retraction_exists",
            certs,
            has_partner,
            witness=at_focus,
            tally=True,
            note="kernel exchange decided on the generators of each map's cones",
        ),
    ]
    return Report("compressible group laws", clauses)


# ---------------------------------------------------------------------------
# compression bases


class CompressionBase(Value):
    """A family of compressions indexed by a sub-effect algebra of foci.

    Declared bases carry an explicit focus list and a map from focus to
    endomorphism.  An intensional base, one without a focus list, takes
    every projection of the matrix model as a focus, with conjugation as
    the assigned map, and keeps the CheckConfig its samples are drawn by
    (cfg); a declared base is decided exactly and carries none.  A
    declared base keeps, through kept, what is built from it once, when
    first asked for.  In _memo:
      ("image", v), ("commutant", v)  the substructures of a focus v;
      a Substructure                  the restricted base on it;
      ("validated", matrix, den, unit, foci)
                                      the validations of a substructure
                                      and its restricted base, shared by
                                      equal substructures (their
                                      projector, unit and restricted foci;
                                      compatibility.substructure_report);
      ("battery", p, q)               the CompatReport of (p, q);
      ("certificate", p)              J_p's certificate checks and
                                      compression law (focus_certificate);
      ("premises", p)                 on a matrix structure, the premises
                                      of J_p (focus_premises);
      ("complement", p)               those of J_{u-p} as its complement;
      ("supplement", p)               u - p itself (complement);
      ("projections",)                are all foci and the unit projections?
    In _pairs:
      ("sum", p, q)                   p + q, for foci p, q;
      ("compose", p, q)               the map J_p after J_q;
      ("image", p, q)                 J_p(q) (image).
    The sums, composed maps, images and batteries make the pair table, one
    entry per ordered focus pair.  Sums, composed maps and images do not
    depend on the structure the base lives in, and a restricted base holds
    its parent's very maps, so a restricted base shares _pairs with the
    base it was cut from (pairs=).  _pairs holds no base, so the sharing
    makes no reference cycle and a base is freed as soon as it is dropped.
    An intensional base keeps nothing: its foci are sampled, so a memo
    would grow with the budget.  A declared base's foci are the keys of
    family, which answers membership.  A base is equal and hashed by
    identity, as the keys of such memos must be.
    """

    __slots__ = ("structure", "foci", "family", "cfg", "_memo", "_pairs")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        structure: Any,
        foci: Optional[tuple],
        family: Optional[dict],
        cfg: Optional[CheckConfig] = None,
        *,
        pairs: Optional[dict] = None,
    ) -> None:
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "foci", foci)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "cfg", cfg)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_pairs", {} if pairs is None else pairs)

    @property
    def intensional(self) -> bool:
        return self.foci is None

    @property
    def unit(self):
        return self.structure.unit

    def contains_focus(self, p) -> bool:
        if self.intensional:
            return self.structure.is_member(p) and matrix_model.is_projection(p)
        return p in self.family

    def j(self, p) -> Endomorphism:
        """The compression assigned to the focus p."""

        if not self.contains_focus(p):
            raise MembershipError("element is not a focus of this base")
        if self.intensional:
            return conjugation_endo(self.structure.carrier, p)
        return self.family[p]

    def complement(self, p):
        return self.kept(("supplement", p), lambda: self.unit - p)

    def kept(self, key, build, memo=None):
        """build(), made once per key on a declared base and kept in memo
        (_memo by default); an intensional base builds it every time."""

        if self.foci is None:
            return build()
        if memo is None:
            memo = self._memo
        value = memo.get(key)
        if value is None:
            value = memo[key] = build()
        return value

    def cases(self, arity: int, sample: Callable[[CheckConfig], Sample]):
        """The universe of a law over the foci, taken arity at a time.

        A declared base gives its foci, or itertools.product tuples of them:
        unsized, so a law that stops at a witness counts the cases it
        reached.  The intensional base gives sample(cfg), with the config
        it keeps, which opens its stream only then.
        """

        if self.foci is None:
            return sample(self.cfg)
        return self.foci if arity == 1 else itertools.product(self.foci, repeat=arity)

    def focus_sum(self, p, q):
        """p + q, from the pair table."""

        return self.kept(("sum", p, q), lambda: p + q, self._pairs)

    def composed(self, p, q):
        """J_p after J_q, from the pair table."""

        return self.kept(("compose", p, q), lambda: compose(self.j(p), self.j(q)), self._pairs)

    def image(self, p, q):
        """J_p(q), from the pair table."""

        return self.kept(("image", p, q), lambda: self.j(p).apply(q), self._pairs)


def base_from_family(structure, pairs) -> CompressionBase:
    """Declared base from (focus, endomorphism) pairs."""

    family = {}
    for focus, endo in pairs:
        if focus in family:
            raise ValueError(f"duplicate focus {focus!r}")
        family[focus] = endo
    foci = tuple(sorted(family, key=lambda f: f.sort_key()))
    return CompressionBase(structure, foci, family)


def base_from_projections(model: MatrixModel, projections) -> CompressionBase:
    """Declared base on the matrix model: conjugation by each projection."""

    return base_from_family(model, [(p, conjugation_endo(model, p)) for p in projections])


def projection_base(model: MatrixModel, cfg: Optional[CheckConfig] = None) -> CompressionBase:
    """Intensional base: every projection, mapped to its conjugation.  Its
    laws are sampled by cfg (CheckConfig() when None), which it keeps."""

    return CompressionBase(model, None, None, cfg or CheckConfig())


def trivial_base(structure) -> CompressionBase:
    """The two-focus base {0, u} carried by every unital group."""

    carrier = structure.carrier
    pairs = [(structure.zero, zero_endo(carrier))]
    if structure.unit != structure.zero:
        pairs.append((structure.unit, identity_endo(carrier)))
    return base_from_family(structure, pairs)


def validate_compression_base(base: CompressionBase) -> Report:
    """Check the compression-base laws and report one clause per law.

    Clauses: the foci form a sub-effect algebra, that subalgebra is normal,
    each focus gets a compression with itself as focus, and the composition
    law J_{p+r} after J_{q+r} = J_r holds whenever p + q + r stays below
    the unit.
    """

    rep = Report(title="compression base laws")
    structure = base.structure

    if base.intensional:
        rep.add(_intensional_closure_clause(base))
    else:
        rep.add(is_sub_effect_algebra(structure, base.foci))

    if structure.finite:
        rep.add(is_normal_subalgebra(structure, base.foci))
    else:
        rep.add(_matrix_normality_clause(base))

    rep.add(_family_clause(base))
    rep.add(_composition_clause(base))
    return rep


def _intensional_closure_clause(base: CompressionBase) -> Clause:
    dim = base.structure.carrier.dim
    rng = base.cfg.rng("base:closure")

    def orthogonal_pair():
        frame = matrix_model.cayley_orthogonal(dim, rng)
        bits_p = [rng.randint(0, 1) for _ in range(dim)]
        bits_q = [0 if bp else rng.randint(0, 1) for bp in bits_p]
        return tuple(matrix_model.frame_sandwich(frame, b) for b in (bits_p, bits_q))

    def closed(pq) -> bool:
        p, q = pq
        return base.contains_focus(base.complement(p)) and base.contains_focus(p + q)

    return law(
        "foci_sub_effect_algebra",
        Sample(base.cfg.spot, orthogonal_pair),
        closed,
        witness=("p", "q"),
        note="projections close under orthosupplement and orthogonal sum; spot checked",
    )


def _matrix_normality_clause(base: CompressionBase) -> Clause:
    """Normality on a matrix structure, decided from products of commuting foci.

    Normality: effects d, e, f with foci m1 = e + d, m2 = f + d and
    e + f + d <= v, the unit, force d to be a focus.  For projections m1,
    m2 and v <= I, 0 <= f <= v - m1 <= I - m1 gives m1 f = 0 (as in
    retraction_certificate), likewise m2 e = 0, and d <= m1 gives
    m1 d = d; so m1 m2 = d = (m1 m2)^T = m2 m1.  The only candidate d is
    thus the product of two commuting foci.  A declared base sweeps its
    focus pairs, failing on a product that is no focus but is a candidate,
    and then needs every focus and the unit (so v <= I) to be projections.
    The intensional base, whose foci are the projections, samples
    commuting pairs.
    """

    structure = base.structure
    leq = structure.leq

    def sample(cfg):
        dim, rng = structure.carrier.dim, cfg.rng("base:normality")
        draw = matrix_model.draw_projection_pair
        return Sample(max(cfg.samples, 1), lambda: draw(dim, rng, commuting=True))

    def holds(pair):
        m1, m2 = pair
        d = matrix_model.commuting_product(m1, m2)
        if d is None or base.contains_focus(d):
            return True
        candidate = structure.is_positive(d) and leq(d, m1) and leq(d, m2)
        return not (candidate and leq(m1 + m2 - d, structure.unit)) or {"d": d, "m1": m1, "m2": m2}

    clause = law(
        "foci_normal_subalgebra",
        base.cases(2, sample),
        holds,
        note="products of commuting foci are foci",
    )
    if clause.ok and not base.intensional:
        elements = (*base.foci, structure.unit)
        stray = next((m for m in elements if not matrix_model.is_projection(m)), None)
        if stray is not None:
            clause.status, clause.witness = FAIL, {"element": stray, "reason": "not a projection"}
    if not clause.ok:
        clause.note = "normality violated"
    return clause


def _family_clause(base: CompressionBase) -> Clause:
    structure = base.structure

    def compression_at(p):
        bad = next((c for c in focus_certificate(base, p) if not c.ok), None)
        return bad is None or {"focus": p, "check": bad.name, "witness": bad.witness}

    def sample(cfg):
        dim, rng = structure.carrier.dim, cfg.rng("base:family")
        return Sample(cfg.spot, lambda: matrix_model.draw_projection(dim, rng))

    if base.intensional:
        note = "sampled projections, each decided from its conjugator"
    else:
        note = "" if structure.finite else "each member decided from its conjugator"
    return law("family_member_compression", base.cases(1, sample), compression_at, note=note)


def _composition_clause(base: CompressionBase) -> Clause:
    """J_{p+r} after J_{q+r} is J_r for orthogonal p, q, r.

    Declared bases sweep every focus triple with p + q + r below the unit
    and list the first triples checked; an intensional base samples
    orthogonal triples of projections in random frames, which need no
    premise.  p + q <= u is decided once per pair, and r is tried only
    where it holds or r is not positive: r >= 0 and p + q + r <= u give
    p + q <= u - r <= u.  The triples come in the order of a sweep of all
    of them.  Sums and composed maps come from the base's pair table.
    """

    structure = base.structure
    unit = structure.unit
    leq = structure.leq
    rows: list = []

    def holds(pqr):
        p, q, r = pqr
        pr, qr = base.focus_sum(p, r), base.focus_sum(q, r)
        if not (base.contains_focus(pr) and base.contains_focus(qr)):
            return {"p": p, "q": q, "r": r, "reason": "sum escapes the base"}
        ok = endo_equal(structure, base.composed(pr, qr), base.j(r))
        rows.append({"p": p, "q": q, "r": r, "ok": ok})
        return ok

    def below_unit():
        loose = [r for r in base.foci if not structure.is_positive(r)]
        for p, q in itertools.product(base.foci, repeat=2):
            pq = base.focus_sum(p, q)
            for r in base.foci if leq(pq, unit) else loose:
                if leq(pq + r, unit):
                    yield p, q, r

    def sample(cfg):
        dim, rng = structure.carrier.dim, cfg.rng("base:composition")

        def orthogonal_triple():
            frame = matrix_model.cayley_orthogonal(dim, rng)
            slots = [rng.randint(0, 2) for _ in range(dim)]
            masks = [[1 if s == k else 0 for s in slots] for k in range(3)]
            return tuple(matrix_model.frame_sandwich(frame, m) for m in masks)

        return Sample(cfg.spot, orthogonal_triple)

    declared = not base.intensional
    clause = law(
        "composition_law",
        below_unit() if declared else base.cases(3, sample),
        holds,
        witness=("p", "q", "r"),
        tally=True,
        note="all focus triples with p + q + r below the unit"
        if declared
        else "sampled orthogonal triples in random frames",
    )
    if declared:
        clause.items = rows if len(rows) <= 24 else None
    return clause


def direct_compression_base(model: LatticeConeModel) -> tuple[CompressionBase, Report]:
    """The base of direct compressions of a finite model, with its laws.

    Direct means J(e) <= e on effects.  The report records the census, that
    every direct focus is central, and the full base validation for the
    resulting family.
    """

    rep = Report(title="direct compression base")
    certs = enumerate_retractions(model)
    direct = [c for c in certs if is_direct(model, c.endo).ok]
    rep.add(
        Clause(
            "direct_retraction_census",
            PASS,
            checked=len(certs),
            note=f"{len(direct)} of {len(certs)} retractions are direct",
            items=[{"focus": c.focus} for c in direct],
        )
    )

    central = center(model)
    foci = [c.focus for c in direct]
    rep.add(law("direct_foci_central", foci, lambda p: p in central, witness="focus"))

    base = base_from_family(model, [(c.focus, c.endo) for c in direct])
    rep.extend(validate_compression_base(base))
    return base, rep

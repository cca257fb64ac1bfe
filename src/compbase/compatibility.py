"""Compatibility of foci, commutants, substructures, and products.

An element g is compatible with a focus p when g splits as
J_p(g) + J_{u-p}(g): when the projector J_p + J_{u-p} of the commutant
substructure of p fixes g.  For two foci the battery below evaluates eight
conditions that are provably equivalent for any compression base; the
equivalence itself is what the sweeps check.  On top of compatibility sit
the meet of compatible foci, the image and commutant substructures with
their restricted bases, morphisms between based groups, and the direct
product decomposition induced by a single focus.  Each substructure and
its restricted base are built once per base and kept on it, so the
substructure and product sections of a report share them, and with them
every universe they list, by the model's own rule (models.positive_box:
the points of a Z-basis of the members between 0 and n times each unit
up to the model).  Their validations are kept on the base
too, once per distinct substructure: the commutant of v is the commutant
of u - v, both cut out by J_v + J_{u-v}, and the image of u and the
commutants of 0 and u are the whole group on a valid base.

Every law here is one function that picks its universe of cases once and
hands it to reporting.law: the interval, cone generators or the declared
foci (their pairs or triples) when the structure is finite or the base
declared, a Sample from a seeded stream of the config the base of all
projections keeps (CompressionBase.cfg) otherwise.  Laws over the foci take
theirs from CompressionBase.cases.  A finite sweep whose premise puts an
effect below an element x takes its effects from the down-set [0, x]
(models.down_set), in the order of the full sweep.  One status rule holds
for the theorem sweeps: a declared base decides them (pass), a sampled
base certifies them.
Four laws follow at each focus p from J_p being a retraction with focus
p, and have one rule for both kinds: family_shape, omp_sharp,
omp_principal and interval_characterization are derived from the premises
the base keeps for p (compression.focus_premises): the retraction checks
of its certificate on a lattice, its conjugator's clauses on a matrix
structure.  On a lattice structure the laws over all of G whose premise
and conclusion are cone or subspace conditions (commutant absorption,
the product laws, and order preservation, one law for a morphism and a
retraction: compression.order_preserving) are decided on the generators
of those cones (models.cone_cases), so a failing generator is a witness.
On a matrix structure the other laws quantified over effects or elements
are decided per focus by rules derived from exactly checked premises
(focus_premises, or those of a single-map check such as
kernel_complement_check), in the substructure and product sections too,
so a declared matrix base draws nothing.  The one exception is
battery_agreement on a declared matrix base with a focus that is not a
projection, which is certified.

A CompatReport is a frozen value (value.Value) compared by fields; a
Substructure is frozen but compared and hashed by identity, as the key
under which its restricted base is memoized.
"""

from __future__ import annotations

import itertools
from math import isqrt
from typing import Any

from . import linalg, matrix_model
from .compression import (
    CompressionBase,
    focus_premises,
    kernel_complement_check,
    order_preserving,
)
from .effect_algebra import MembershipError, is_effect, is_mackey_compatible, mackey_triples
from .elements import conjugate
from .models import (
    Endomorphism,
    NotEnumerableError,
    compose,
    cone_cases,
    conjugation_endo,
    down_set,
    endo_equal,
    fixed_rows,
    generators,
    identity_endo,
    map_key,
    positive_box,
    zero_endo,
)
from .reporting import FAIL, Clause, Report, Sample, derived, law
from .value import Value


class MeetUndefinedError(ValueError):
    """Raised when a meet is requested for incompatible foci."""


# ---------------------------------------------------------------------------
# commutants


def in_commutant(base: CompressionBase, p, g) -> bool:
    """Does g split as J_p(g) + J_{u-p}(g), that is, is it fixed by the
    projector J_p + J_{u-p} of the commutant substructure of p?"""

    return commutant_substructure(base, p).is_member(g)


def commutant_absorption_check(base: CompressionBase, p, g) -> Clause:
    """One-element check of the two absorption implications.

    J_p(g) <= g forces g compatible with p; and a positive g compatible
    with p forces J_p(g) <= g.
    """

    return law("commutant_absorption", ((p, g),), lambda pg: _absorbs(base, *pg))


def _absorbs(base: CompressionBase, p, g):
    """True, or the witness of the first absorption implication g breaks."""

    structure = base.structure
    below = structure.leq(base.j(p).apply(g), g)
    member = in_commutant(base, p, g)
    if below and not member:
        return {"p": p, "g": g, "direction": "dominated_but_incompatible"}
    if structure.is_positive(g) and member and not below:
        return {"p": p, "g": g, "direction": "compatible_positive_not_dominated"}
    return True


# ---------------------------------------------------------------------------
# the compatibility battery


BATTERY_CONDITIONS = (
    "commute",
    "jp_q_eq_jq_p",
    "jp_q_le_q",
    "mackey_in_interval",
    "mackey_in_base",
    "exists_common_focus",
    "jp_q_in_base",
    "q_in_commutant",
)


class CompatReport(Value):
    """Eight compatibility conditions for one ordered pair of foci."""

    __slots__ = ("p", "q", "conditions")

    def __init__(self, p: Any, q: Any, conditions: tuple[tuple[str, bool], ...]) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "conditions", conditions)

    @property
    def values(self) -> dict:
        return dict(self.conditions)

    @property
    def compatible(self) -> bool:
        return all(v for _, v in self.conditions)

    @property
    def agree(self) -> bool:
        return len({v for _, v in self.conditions}) == 1

    def jsonable(self):
        return {
            "p": self.p,
            "q": self.q,
            "conditions": dict(self.conditions),
            "compatible": self.compatible,
            "agree": self.agree,
        }


def compat_battery(base: CompressionBase, p, q) -> CompatReport:
    """Evaluate all eight compatibility conditions for the pair (p, q).

    mackey_in_interval searches the whole interval of a finite structure.
    On the matrix model it, and on the intensional base mackey_in_base and
    the common-focus condition too, are tested through the constructive
    witness r = J_p(q), e = p - r, f = q - r, and so is mackey_in_base on a
    declared base whose foci and unit are projections (_projection_foci).
    Any other declared base searches its foci for mackey_in_base.

    When p, q and the unit v are projections the constructive test is a
    decision: a Mackey triple p = e + d, q = f + d with e + f + d <= v has
    p + f <= v, so p v = p (both are projections) and p f p <= p (v-p) p
    = 0, which gives p f = 0; and d <= p gives d = p d p.  So p q = p d =
    d, q p = d^T = d, and d = p q p = r is the only candidate.  The same
    argument decides normality in compression._matrix_normality_clause.

    A declared base runs the battery once per ordered pair and keeps it in
    its pair table, and reads J_p(q) and J_q(p) from there (image).
    """

    for name, x in (("p", p), ("q", q)):
        if not base.contains_focus(x):
            raise MembershipError(f"{name} is not a focus of this base")
    return base.kept(("battery", p, q), lambda: _battery(base, p, q))


def _battery(base: CompressionBase, p, q) -> CompatReport:
    structure = base.structure
    pq = base.composed(p, q)
    qp = base.composed(q, p)
    r = base.image(p, q)

    if structure.finite:
        in_interval = is_mackey_compatible(structure, p, q)
    else:
        e = p - r
        f = q - r
        in_interval = all(is_effect(structure, x) for x in (r, e, f))
        in_interval = in_interval and structure.leq(e + f + r, structure.unit)
    if base.intensional or _projection_foci(base):
        in_base = in_interval and all(base.contains_focus(x) for x in (r, e, f))
    else:
        triples = mackey_triples(structure, p, q, base.foci, base.contains_focus)
        in_base = next(triples, None) is not None
    if base.intensional:
        jr = conjugation_endo(structure.carrier, r)
        common = base.contains_focus(r) and endo_equal(structure, pq, jr)
    else:
        common = map_key(structure, pq) in _focus_map_keys(base)
    conds = (
        ("commute", endo_equal(structure, pq, qp)),
        ("jp_q_eq_jq_p", r == base.image(q, p)),
        ("jp_q_le_q", structure.leq(r, q)),
        ("mackey_in_interval", in_interval),
        ("mackey_in_base", in_base),
        ("exists_common_focus", common),
        ("jp_q_in_base", base.contains_focus(r)),
        ("q_in_commutant", in_commutant(base, p, q)),
    )
    return CompatReport(p, q, conds)


def _projection_foci(base: CompressionBase) -> bool:
    """Are the foci and the unit of a declared matrix base all projections?"""

    def build():
        return all(map(matrix_model.is_projection, (*base.foci, base.unit)))

    return not base.structure.finite and base.kept(("projections",), build)


def _focus_map_keys(base: CompressionBase) -> frozenset:
    """The map_key of every J_s of a declared base, kept under ("focus_maps",):
    endo_equal holds exactly when two maps' keys are equal."""

    structure = base.structure
    return base.kept(
        ("focus_maps",), lambda: frozenset(map_key(structure, base.j(s)) for s in base.foci)
    )


def meet(base: CompressionBase, p, q):
    """The meet of two compatible foci, fully checked.

    Returns r = J_p(q) after confirming it equals J_q(p), lies below both
    arguments, is the greatest lower bound among effects, and carries the
    composed compression.  Incompatible foci raise MeetUndefinedError.
    """

    battery = compat_battery(base, p, q)
    if not battery.compatible:
        if battery.agree:
            raise MeetUndefinedError("foci are not compatible")
        raise MeetUndefinedError(
            "battery conditions disagree; the base does not satisfy its laws"
        )
    return _checked_meet(base, p, q)


def _checked_meet(base: CompressionBase, p, q):
    """J_p(q) for a battery-compatible pair; a violated meet law raises RuntimeError."""
    structure = base.structure
    r = base.image(p, q)
    if r != base.image(q, p):
        raise RuntimeError("meet law violated: the two one-sided values differ")
    if not (structure.leq(r, p) and structure.leq(r, q)):
        raise RuntimeError("meet law violated: value is not a lower bound")
    if not _greatest_lower_bound(structure, p, q, r):
        raise RuntimeError("meet law violated: not shown to be the greatest lower bound")
    if not base.contains_focus(r):
        raise RuntimeError("meet law violated: value escapes the base")
    if not endo_equal(structure, base.composed(p, q), base.j(r)):
        raise RuntimeError("meet law violated: composed map is not the meet's map")
    return r


def _greatest_lower_bound(structure, p, q, r) -> bool:
    """Is r, a lower bound of p and q, above every effect below both?

    A finite structure sweeps the effects below p (models.down_set) that
    lie below q.  On a matrix structure the law is derived when p is a
    projection and r = p q p, tested exactly (or the same with p and q
    exchanged): an effect e below p has e = p e p (as in
    retraction_certificate), and e <= q gives p e p <= p q p by
    congruence, so e <= r.  Other matrix pairs are not shown to meet.
    """

    if structure.finite:
        leq = structure.leq
        return all(leq(e, r) for e in down_set(structure, p) if leq(e, q))
    return any(matrix_model.is_projection(a) and conjugate(a, b) == r for a, b in ((p, q), (q, p)))


# ---------------------------------------------------------------------------
# substructures


class Substructure(Value):
    """A unital subgroup of a model, cut out by an idempotent projector.

    kind "image" is the range of one compression, with its focus as unit;
    kind "commutant" is the set of elements compatible with a focus, with
    the ambient unit.  Both support the same sweep protocol as a model, so
    every validation can be re-run inside them.  Its members are the
    points that every projector on the chain up to the model fixes
    (equalities).  On a lattice each universe is listed by the model's own
    rule (models.positive_box: the points of the member lattice between 0
    and n*w for every unit w up to the model, bounds) and kept (_boxes);
    so are the generators of its cones (_cones, models.generators) and its
    down-sets (_below, models.down_set); its order is its carrier's, memo
    included (leq).  On a matrix parent, whose maps keep no image table,
    each membership answer is kept too (_members).
    image_substructure and commutant_substructure build one substructure
    per (kind, v) once per base.  premises make the projector a congruence
    into [0, unit] (models._validate_matrix); a finite parent sweeps instead,
    and the base of all projections conjugates by projections by
    construction.  A substructure is equal and hashed by identity, since
    restricted bases are memoized under it.
    """

    __slots__ = (
        "parent", "kind", "v", "unit", "projector", "premises", "_boxes", "_below", "_cones",
        "_maps", "_members",
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, parent: Any, kind: str, v: Any, unit: Any, projector, premises=()) -> None:
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "projector", projector)
        object.__setattr__(self, "premises", premises)
        object.__setattr__(self, "_boxes", {})
        object.__setattr__(self, "_below", {})
        object.__setattr__(self, "_cones", {})
        object.__setattr__(self, "_maps", {})
        object.__setattr__(self, "_members", {})

    @property
    def finite(self) -> bool:
        return self.parent.finite

    @property
    def carrier(self):
        return self.parent.carrier

    @property
    def zero(self):
        return self.parent.zero

    @property
    def equalities(self) -> tuple:
        return self.parent.equalities + fixed_rows(self.projector)

    @property
    def is_trivial(self) -> bool:
        return self.unit == self.parent.zero

    def project(self, g):
        return self.projector.apply(self.parent.project(g))

    def is_member(self, g) -> bool:
        """g is a member of the parent that the projector P / den fixes:
        on a lattice P g == den * g on the coordinates (the fixed_rows
        equalities), which holds or fails without leaving the lattice."""
        if not self.parent.is_member(g):
            return False
        if self.finite:
            p = self.projector
            return linalg.mat_vec(p.matrix, g.coords) == tuple(p.den * x for x in g.coords)
        known = self._members.get(g)
        if known is None:
            known = self._members[g] = self.projector.apply(g) == g
        return known

    def is_positive(self, g) -> bool:
        return self.parent.is_positive(g)

    def restrict(self, a: Endomorphism) -> Endomorphism:
        """a after the projector: a read as a map of the substructure,
        composed once per map (its map_key on the carrier) and kept."""

        key = map_key(self.carrier, a)
        out = self._maps.get(key)
        if out is None:
            out = self._maps[key] = compose(a, self.projector)
        return out

    def leq(self, a, b) -> bool:
        return self.parent.leq(a, b)

    @property
    def bounds(self) -> tuple:
        """The units from this substructure up to the model, each once."""
        return tuple(dict.fromkeys((self.unit, *self.parent.bounds)))

    def interval(self):
        return self.positive_universe(1)

    def positive_universe(self, n: int) -> tuple:
        """The model's rule (models.positive_box) on the members here and
        the units up to the model.  The parent's box is fetched first, so
        a box raises where the parent's does."""

        if n not in self._boxes:
            self.parent.positive_universe(n)
        return positive_box(self, n)


def image_substructure(base: CompressionBase, v) -> Substructure:
    """The range of J_v, as a unital group with unit v; built once per declared base.
    On a matrix parent with unit w, J_v conjugates by a projection v with
    v w = v, so 0 <= e <= w gives 0 <= v e v <= v."""

    if not base.contains_focus(v):
        raise MembershipError("v is not a focus of this base")

    def build():
        parent = base.structure
        unchecked = parent.finite or base.intensional  # see Substructure
        premises = () if unchecked else focus_premises(base, v, focus=True) + parent.premises
        return Substructure(parent, "image", v, v, base.j(v), premises)

    return base.kept(("image", v), build)


def commutant_substructure(base: CompressionBase, v) -> Substructure:
    """All elements compatible with v, as a unital group with the same unit.

    Its projector is J_v + J_{u-v}.  Built once per declared base.  On a
    matrix parent these conjugate by symmetric idempotents p and u - p, so
    0 <= e <= u gives 0 <= p e p + (u-p) e (u-p) <= p + (u-p) = u.
    """

    def build():
        if not base.contains_focus(v):
            raise MembershipError("v is not a focus of this base")
        comp = base.complement(v)
        if not base.contains_focus(comp):
            raise MembershipError("the complement of v escapes the base")
        parent = base.structure
        jv = base.j(v)
        jc = base.j(comp)
        sum_matrix = linalg.combine(jv.matrix, jv.den, jc.matrix, jc.den)
        projector = Endomorphism(parent.carrier, *sum_matrix)
        unchecked = parent.finite or base.intensional  # see Substructure
        premises = () if unchecked else focus_premises(base, v, comp=True) + parent.premises
        return Substructure(parent, "commutant", v, parent.unit, projector, premises)

    return base.kept(("commutant", v), build)


def restricted_base(base: CompressionBase, sub: Substructure) -> CompressionBase:
    """The compression base a substructure inherits from its parent.

    Image substructures keep the foci below v; commutant substructures keep
    the foci compatible with v.  The maps themselves are unchanged, only
    re-read as maps of the substructure.  Built once per (base, sub); it
    reads and fills its parent's sums and composed maps (CompressionBase).
    """

    if base.foci is None:
        raise NotEnumerableError(
            "restricting a base needs a declared focus list"
        )

    def build():
        if sub.kind == "image":
            keep = [q for q in base.foci if base.structure.leq(q, sub.v)]
        else:
            keep = [q for q in base.foci if sub.is_member(q)]
        return CompressionBase(
            sub, tuple(keep), {q: base.j(q) for q in keep}, pairs=base._pairs
        )

    return base.kept(sub, build)


def substructure_report(base: CompressionBase, v, kind: str):
    """Build a substructure and re-run the whole validation stack inside it.

    Returns (substructure, restricted base, report).  The report covers the
    projector, the characterization of the substructure's interval, the
    unital-group axioms seen from inside, and the restricted base laws.

    The last two, validate_unital_group of the substructure and
    validate_compression_base of its restricted base, are kept on the base
    under all they read: the projector (its map_key), the unit and the
    restricted foci (the parent and the maps are the base's own, and
    neither reads kind or v).  So two substructures with one key, such as
    the commutants of v and u - v, are validated once, and their reports
    hold the same validation clauses.  A matrix substructure whose
    premises do not all hold is validated afresh: its failing premise
    names itself in the witness.
    """

    if kind == "image":
        sub = image_substructure(base, v)
    elif kind == "commutant":
        sub = commutant_substructure(base, v)
    else:
        raise ValueError(f"unknown substructure kind {kind!r}")

    from .models import validate_unital_group
    from .compression import validate_compression_base

    parent = base.structure
    clauses = [
        law(
            "projector_idempotent",
            (sub.projector,),
            lambda pr: endo_equal(parent, compose(pr, pr), pr),
            witness=lambda pr: None,
        ),
        _interval_characterization_clause(base, sub),
    ]
    rbase = restricted_base(base, sub)
    clauses.append(
        law("restricted_foci_members", rbase.foci, sub.is_member, witness="focus")
    )
    rep = Report(f"{kind} substructure", clauses)

    def validations():
        return validate_unital_group(sub), validate_compression_base(rbase)

    if all(c.ok for c in sub.premises):
        key = ("validated", map_key(parent.carrier, sub.projector), sub.unit, rbase.foci)
        unital, based = base.kept(key, validations)
    else:
        unital, based = validations()
    rep.extend(unital)
    rep.extend(based)
    return sub, rbase, rep


def _interval_characterization_clause(base: CompressionBase, sub: Substructure) -> Clause:
    """The substructure's effects, described from the parent's interval.

    Image: membership coincides with lying below v.  Commutant: sums of an
    effect below v and one below u - v are members, and every member effect
    splits that way under J_v and J_{u-v}.

    Both are derived from focus_premises of J_v (and J_{u-v}), retractions
    with focus v (and u - v); a member is a point the projector fixes.
    Image: J_v fixes e <= v, and J_v e = e gives e = J_v e <= J_v u = v.
    Commutant: a <= v and b <= u - v give J_v a = a and
    0 <= J_v b <= J_v (u - v) = 0, and likewise J_{u-v} b = b and
    J_{u-v} a = 0, so J_v + J_{u-v} fixes a + b <= u; a member effect is
    J_v e + J_{u-v} e, the first below v and the second below u - v.
    """

    image = sub.kind == "image"
    premises = focus_premises(base, sub.v, focus=True, comp=not image)
    if image:
        note = "J_v e = e iff e <= v" if base.structure.finite else "e = v e v iff e <= v"
    else:
        note = "member effects are a + b, a <= v, b <= u - v"
    return derived("interval_characterization", premises, note)


# ---------------------------------------------------------------------------
# morphisms and the direct product


def morphism_report(
    src_structure,
    src_base: CompressionBase,
    tgt_structure,
    tgt_base: CompressionBase,
    phi: Endomorphism,
    prefix: str = "",
) -> Report:
    """Check one map as a morphism of unital groups with compression bases.

    Laws: order preservation, unit to unit, declared foci into declared
    foci, and the intertwining J_{phi(q)} after phi = phi after J_q for
    every source focus q.  Order preservation is the law a retraction
    states too (compression.order_preserving).
    """

    clauses = [
        order_preserving(src_structure, phi, tgt_structure, prefix),
        law(
            prefix + "preserves_unit",
            (src_structure.unit,),
            lambda u: phi.apply(u) == tgt_structure.unit,
            witness=lambda u: {"image": phi.apply(u)},
        ),
    ]
    if src_base.foci is None:
        raise NotEnumerableError("morphism focus checks need a declared focus list")

    def to_focus(q) -> bool:
        return tgt_base.contains_focus(phi.apply(q))

    def intertwines(q) -> bool:
        if not to_focus(q):
            return True
        left = compose(tgt_base.j(phi.apply(q)), phi)
        return endo_equal(src_structure, left, compose(phi, src_base.j(q)))

    foci = src_base.foci
    clauses += [
        law(prefix + "foci_to_foci", foci, to_focus, witness="focus"),
        law(prefix + "intertwines_compressions", foci, intertwines, witness="focus"),
    ]
    return Report("morphism laws", clauses)


def direct_product_report(base: CompressionBase, v) -> Report:
    """The decomposition of the commutant of v as a direct product.

    The compressions J_v and J_{u-v}, read on the commutant C(v), are
    surjective morphisms onto the image substructures of v and u - v; the
    pairing g -> (J_v(g), J_{u-v}(g)) is a bijection onto the product,
    with componentwise order, inverted by addition.  The commutant's
    projector is J_v + J_{u-v}, so pairing_recovers_element holds by
    construction.

    A finite structure decides each law over all of its group.
    eta_, kappa_fixes_image and pairing_surjective are linear identities,
    checked on a basis of each image (models.generators with no cone rows),
    and on the pairs (h, 0) and (0, k), which span the product.
    order_componentwise: eta and kappa are positive on the generators of
    C(v)'s positive cone, and the generators of the cone {g in C(v) :
    eta g >= 0, kappa g >= 0} are positive (models.cone_cases).  On a
    matrix structure the laws follow from focus_premises: J_v and J_{u-v}
    conjugate by p and q = u - p, p q = q p = 0, and C(v) holds the
    g = p g p + q g q.  An image element h = p h p has q h q = 0, so C(v)
    holds it and J_v fixes it (eta_, kappa_fixes_image); so
    J_v(h + k) = h, J_{u-v}(h + k) = k (pairing_surjective); and g >= 0
    iff both congruences of g are (order_componentwise).
    """

    structure = base.structure
    comp = base.complement(v)
    sub_c = commutant_substructure(base, v)
    sub_h = image_substructure(base, v)
    sub_k = image_substructure(base, comp)
    base_c = restricted_base(base, sub_c)
    base_h = restricted_base(base, sub_h)
    base_k = restricted_base(base, sub_k)
    eta = base.j(v)
    kappa = base.j(comp)

    rep = Report(title="direct product decomposition")
    rep.extend(morphism_report(sub_c, base_c, sub_h, base_h, eta, "eta_"))
    rep.extend(morphism_report(sub_c, base_c, sub_k, base_k, kappa, "kappa_"))
    recovers = derived("pairing_recovers_element", (), "the commutant's projector is J_v + J_{u-v}")

    if not structure.finite:
        premises = focus_premises(base, v, comp=True)
        rep.clauses += [
            derived("eta_fixes_image", premises, "h = v h v is in the commutant, fixed"),
            derived("kappa_fixes_image", premises, "k = (u-v) k (u-v) is in the commutant, fixed"),
            recovers,
            derived("pairing_surjective", premises, "v (u-v) = 0 splits h + k into h and k"),
            derived("order_componentwise", premises, "a member g is v g v + (u-v) g (u-v)"),
        ]
        return rep

    def fixes(j, x) -> bool:
        return sub_c.is_member(x) and j.apply(x) == x

    def realized(hk) -> bool:
        h, k = hk
        s = h + k
        return sub_c.is_member(s) and eta.apply(s) == h and kappa.apply(s) == k

    def componentwise(g) -> bool:
        pos = structure.is_positive
        return pos(g) == (pos(eta.apply(g)) and pos(kappa.apply(g)))

    zero = structure.zero
    basis_h, basis_k = (generators(s, ())[0] for s in (sub_h, sub_k))
    cone = structure.carrier.cone_rows
    split = linalg.mat_mul(cone, eta.matrix) + linalg.mat_mul(cone, kappa.matrix)
    rep.clauses += [
        law(
            "eta_fixes_image",
            basis_h,
            lambda h: fixes(eta, h),
            witness="element",
            note="image elements lie in the commutant and are fixed, so the map is onto",
        ),
        law("kappa_fixes_image", basis_k, lambda k: fixes(kappa, k), witness="element"),
        recovers,
        law(
            "pairing_surjective",
            [(h, zero) for h in basis_h] + [(zero, k) for k in basis_k],
            realized,
            witness=("h", "k"),
            note="every component pair is realized by its sum",
        ),
        law(
            "order_componentwise",
            cone_cases(sub_c) + cone_cases(sub_c, split),
            componentwise,
            witness="element",
            note="decided on the generators of both cones",
        ),
    ]
    return rep


# ---------------------------------------------------------------------------
# the orthomodular poset of foci


def omp_report(base: CompressionBase) -> Report:
    """Orthomodular poset laws for the foci of a base.

    Declared bases quantify over their foci; the interval-quantified
    clauses (sharpness and principality) are derived per focus on both
    kinds (_focus_derived).  An intensional base is checked entirely on
    sampled projections, and its clauses draw, in order, from one stream
    of the config it keeps, opened only there.
    """

    rng, n = None, 0
    if base.intensional:
        rng, n = base.cfg.rng("omp"), max(base.cfg.spot, base.cfg.samples // 4)
    laws = (
        _omp_bounded,
        _omp_orthocomplement,
        _omp_orthogonal_join,
        _omp_orthomodular,
        _omp_sharp,
        _omp_principal,
    )
    return Report("orthomodular poset laws", [check(base, n, rng) for check in laws])


def _omp_bounded(base: CompressionBase, n: int, rng) -> Clause:
    structure = base.structure
    dim, declared = structure.carrier.dim, base.foci is not None
    clause = law(
        "omp_bounded",
        base.cases(1, lambda _: Sample(n, lambda: matrix_model.draw_projection(dim, rng))),
        lambda p: is_effect(structure, p),
        witness=None if declared else "p",
        note="" if declared else "sampled projections are effects; zero and unit are foci",
    )
    bounded = base.contains_focus(structure.zero) and base.contains_focus(structure.unit)
    if clause.ok and not bounded:
        clause.status = FAIL
        clause.witness = {"missing": "zero or unit"}
    return clause


def _omp_orthocomplement(base: CompressionBase, n: int, rng) -> Clause:
    """u - p is a focus with u - (u - p) = p, and q <= p gives u - p <= u - q.

    Declared foci are paired with every focus below them, and the clause
    reports |F| involutions plus |F|^2 ordered pairs; the sampled universe
    draws nested pairs.
    """

    structure = base.structure
    unit = structure.unit
    leq = structure.leq
    dim = structure.carrier.dim

    def holds(pq):
        p, q = pq
        c = unit - p
        if not (base.contains_focus(c) and unit - c == p):
            return {"p": p}
        return leq(unit - p, unit - q)

    declared = base.foci is not None
    size = len(base.foci) if declared else 0
    return law(
        "omp_orthocomplement",
        base.cases(2, lambda _: Sample(n, lambda: matrix_model.draw_nested_projections(dim, rng))),
        holds,
        (lambda pq: leq(pq[1], pq[0])) if declared else None,
        witness=("p", "q"),
        checked=size + size**2 if declared else None,
        note="involutive and order reversing" + ("" if declared else "; sampled"),
    )


def _omp_orthogonal_join(base: CompressionBase, n: int, rng) -> Clause:
    """An orthogonal sum p + q is a focus and the least upper bound of p, q.

    Declared foci are all tried as upper bounds; the sampled universe draws
    p, q in one frame and, once p + q is known to be a focus above them, a
    cover from the same frame.
    """

    structure = base.structure
    leq = structure.leq
    dim = structure.carrier.dim

    def frame_pair():
        frame = matrix_model.cayley_orthogonal(dim, rng)
        slots = [rng.randint(0, 2) for _ in range(dim)]
        p = matrix_model.frame_sandwich(frame, [s == 0 for s in slots])
        q = matrix_model.frame_sandwich(frame, [s == 1 for s in slots])
        return p, q, frame, slots

    def upper_bounds(case):
        if base.foci is not None:
            return base.foci
        frame, slots = case[2:]
        bits = [s in (0, 1) or rng.randint(0, 1) for s in slots]
        return (matrix_model.frame_sandwich(frame, bits),)

    def holds(case):
        p, q = case[:2]
        s = p + q
        if not (base.contains_focus(s) and leq(p, s) and leq(q, s)):
            return {"p": p, "q": q}
        bad = next(
            (r for r in upper_bounds(case) if leq(p, r) and leq(q, r) and not leq(s, r)),
            None,
        )
        return bad is None or {"p": p, "q": q, "upper_bound": bad}

    declared = base.foci is not None
    return law(
        "omp_orthogonal_join",
        base.cases(2, lambda _: Sample(n, frame_pair)),
        holds,
        (lambda case: leq(case[0] + case[1], structure.unit)) if declared else None,
        note="orthogonal sums are least upper bounds in the base"
        if declared
        else "orthogonal sums are least upper bounds; sampled frames",
    )


def _omp_orthomodular(base: CompressionBase, n: int, rng) -> Clause:
    """For p <= q the difference q - p is a focus that rejoins p to give q."""

    leq = base.structure.leq
    dim = base.structure.carrier.dim
    draw = matrix_model.draw_nested_projections
    upper_bounds = base.foci or ()

    def holds(pq):
        p, q = pq
        d = q - p
        if not base.contains_focus(d):
            return False
        bad = next((r for r in upper_bounds if leq(p, r) and leq(d, r) and not leq(q, r)), None)
        return bad is None or {"p": p, "q": q, "upper_bound": bad}

    declared = base.foci is not None
    return law(
        "omp_orthomodular",
        base.cases(2, lambda _: Sample(n, lambda: draw(dim, rng)[::-1])),
        holds,
        (lambda pq: leq(*pq)) if declared else None,
        witness=("p", "q"),
        note="below q, the difference q - p rejoins p to give q"
        if declared
        else "differences of nested projections are projections; sampled",
    )


def _focus_derived(name: str, base: CompressionBase, n: int, rng, note: str) -> Clause:
    """A law over the foci p of a base, each decided from focus_premises of
    J_p: its conjugator's on a matrix base, its retraction certificate on a
    lattice base.  An intensional base draws projections."""

    def holds(p):
        res = derived(name, focus_premises(base, p, focus=True), note)
        return res.ok or {"p": p, **res.witness}

    structure = base.structure
    dim = structure.carrier.dim
    foci = base.cases(1, lambda _: Sample(n, lambda: matrix_model.draw_projection(dim, rng)))
    source = "retraction certificate" if structure.finite else "conjugator"
    return law(name, foci, holds, note=f"{note}; decided from each {source}")


def _omp_sharp(base: CompressionBase, n: int, rng) -> Clause:
    """No nonzero effect sits below both a focus p and u - p.

    J = J_p is a retraction with focus p (focus_premises): an effect e
    below p and u - p has e = J e <= J(u - p) = p - p = 0.
    """

    note = "no nonzero effect sits below both p and its complement"
    return _focus_derived("omp_sharp", base, n, rng, note)


def _omp_principal(base: CompressionBase, n: int, rng) -> Clause:
    """Effects e, f below a focus p with e + f defined have e + f <= p.

    J = J_p is a retraction with focus p (focus_premises): it fixes e and
    f, and e + f <= u gives e + f = J(e + f) <= J u = p.
    """

    note = "defined sums of effects below p stay below p"
    return _focus_derived("omp_principal", base, n, rng, note)


# ---------------------------------------------------------------------------
# theorem sweeps


def _projections(base: CompressionBase, cfg, tag: str, count: int = 0) -> Sample:
    """count projections of the carrier, max(cfg.samples, 1) by default,
    drawn from the stream tag of cfg."""

    dim, rng = base.structure.carrier.dim, cfg.rng(tag)
    return Sample(count or max(cfg.samples, 1), lambda: matrix_model.draw_projection(dim, rng))


def _pairs(base: CompressionBase, cfg, tag: str, count: int = 0) -> Sample:
    """count pairs of projections, max(cfg.samples, 1) by default, drawn
    from the stream tag of cfg: commuting, nested and general in turn."""

    dim, rng = base.structure.carrier.dim, cfg.rng(tag)
    kinds = itertools.cycle(
        (
            lambda: matrix_model.draw_projection_pair(dim, rng, commuting=True),
            lambda: matrix_model.draw_nested_projections(dim, rng),
            lambda: matrix_model.draw_projection_pair(dim, rng, commuting=False),
        )
    )
    return Sample(count or max(cfg.samples, 1), lambda: next(kinds)())


def theorem_report(base: CompressionBase) -> Report:
    """Sweep the base-level consequences of the compression-base laws.

    Covers: the zero and unit maps, idempotence and focus fixing of each
    family member, the kernel/fixed-point exchange with the complementary
    map on positives, the five-way absorption equivalence, the two
    commutant absorption implications, agreement of the eight-way
    compatibility battery, meets of compatible pairs, and the orthomodular
    poset laws of the foci.
    """

    rep = Report(title="compression base theorems")
    rep.add(_zero_unit_clause(base))
    rep.add(_family_shape_clause(base))
    rep.add(_kernel_complement_clause(base))
    rep.add(_absorption_clause(base))
    rep.add(_commutant_absorption_clause(base))
    rep.add(_battery_clause(base))
    rep.add(_meet_clause(base))
    rep.extend(omp_report(base))
    return rep


def _zero_unit_clause(base: CompressionBase) -> Clause:
    structure = base.structure
    carrier = structure.carrier
    bounded = base.contains_focus(structure.zero) and base.contains_focus(structure.unit)

    def carries(focus_map):
        if not bounded:
            return {"missing": "zero or unit focus"}
        return endo_equal(structure, base.j(focus_map[0]), focus_map[1])

    return law(
        "zero_and_unit_maps",
        ((structure.zero, zero_endo(carrier)), (structure.unit, identity_endo(carrier))),
        carries,
        witness=lambda focus_map: {"focus": focus_map[0]},
        note="the zero focus carries the zero map, the unit focus the identity",
    )


def _family_shape_clause(base: CompressionBase) -> Clause:
    """Idempotence, focus fixing, and complement killing for each member.

    Each is derived from focus_premises of J = J_p, a retraction with focus
    p.  J maps the interval E into [0, p] (0 <= J e <= J u = p) and fixes
    [0, p], so J J = J on E, which generates G; J fixes p; and an effect
    e <= u - p has 0 <= J e <= J(u - p) = p - p = 0.
    """

    def sample(cfg):
        return _projections(base, cfg, "theorem:family", max(4, isqrt(cfg.samples)))

    def shaped(p):
        res = derived("family_shape", focus_premises(base, p, focus=True), "")
        return res.ok or {"focus": p, **res.witness}

    return law(
        "family_shape",
        base.cases(1, sample),
        shaped,
        tally=True,
        note="each member is idempotent, fixes its focus, kills below the complement",
    )


def _kernel_complement_clause(base: CompressionBase) -> Clause:
    """The kernel exchange (kernel_complement_check) for each focus and its
    complement; a matrix base passes the premises it keeps (focus_premises)."""

    structure = base.structure

    def exchanges(p):
        premises = None if structure.finite else focus_premises(base, p, comp=True)
        res = kernel_complement_check(structure, base.j(p), base.j(base.complement(p)), premises)
        return res.ok or {"focus": p, "witness": res.witness}

    return law(
        "kernel_complement_fixpoint",
        base.cases(1, lambda cfg: _projections(base, cfg, "theorem:kernel")),
        lambda p: _complement_escapes(base, p) or exchanges(p),
        note="J_p kills a positive exactly when J_{u-p} fixes it",
    )


def _complement_escapes(base: CompressionBase, p):
    """The witness of a focus p whose complement u - p is no focus, else None."""

    if not base.contains_focus(base.complement(p)):
        return {"focus": p, "reason": "complement escapes the base"}
    return None


def _absorption_clause(base: CompressionBase) -> Clause:
    structure = base.structure

    def conditions(pq) -> tuple:
        p, q = pq
        jq = base.j(q)
        return (
            structure.leq(q, p),
            endo_equal(structure, base.composed(p, q), jq),
            base.image(p, q) == q,
            endo_equal(structure, base.composed(q, p), jq),
            base.image(q, p) == q,
        )

    return law(
        "absorption_equivalences",
        base.cases(2, lambda cfg: _pairs(base, cfg, "theorem:absorption")),
        lambda pq: len(set(conditions(pq))) == 1,
        witness=lambda pq: {"p": pq[0], "q": pq[1], "conditions": list(conditions(pq))},
        tally=True,
        note="five conditions equivalent to q below p agree on every pair",
    )


def _commutant_absorption_clause(base: CompressionBase) -> Clause:
    """_absorbs for every focus p and element g.

    A finite structure decides each focus on cone generators
    (models.cone_cases), with R the cone rows and P = J_p + J_{u-p} the
    commutant's projector: J_p(g) <= g cuts out K = {g : R (I - J_p) g >= 0},
    on which (I - P) g = 0 must hold, and the compatible positives are the
    commutant's positive cone, on which R (I - J_p) g >= 0 must hold; so
    _absorbs on the generators of both decides the law over all of G.  On
    a matrix structure with unit v each focus is decided from
    focus_premises of J_p and J_{u-p}: p g p <= g gives h = g - p g p >= 0
    with p h p = 0, so h p = 0 and g p = p g = p g p; with g = v g v that
    makes g = p g p + (v-p) g (v-p), which the projector of the commutant
    fixes.  Conversely a positive g in the commutant has
    g - p g p = (v-p) g (v-p) >= 0.  A focus whose complement is no focus
    fails the clause, as in kernel_complement_fixpoint.
    """

    structure = base.structure
    note = "domination implies compatibility; compatible positives are dominated"

    def absorbs(p):
        if structure.finite:
            dominated = linalg.mat_mul(structure.carrier.cone_rows, fixed_rows(base.j(p)))
            cone = cone_cases(structure, dominated) + cone_cases(commutant_substructure(base, p))
            return next((w for w in (_absorbs(base, p, g) for g in cone) if w is not True), True)
        res = derived("commutant_absorption", focus_premises(base, p, comp=True), note)
        return res.ok or {"p": p, **res.witness}

    foci = base.cases(1, lambda cfg: _projections(base, cfg, "theorem:commutant"))
    return law(
        "commutant_absorption", foci, lambda p: _complement_escapes(base, p) or absorbs(p), note=note
    )


def _battery_clause(base: CompressionBase) -> Clause:
    """The battery of (p, q) agrees, and (q, p) is compatible exactly when
    (p, q) is; a declared base reads the mirror from its pair table.  A q
    whose complement is no focus is not mirrored: it fails the clause at
    its own turn as p."""

    def agrees(pq):
        p, q = pq
        battery = compat_battery(base, p, q)
        if not battery.agree:
            return {"p": p, "q": q, "conditions": battery.values}
        if _complement_escapes(base, q):
            return True
        return compat_battery(base, q, p).compatible == battery.compatible

    decided = base.foci is not None and (base.structure.finite or _projection_foci(base))
    return law(
        "battery_agreement",
        base.cases(2, lambda cfg: _pairs(base, cfg, "theorem:battery")),
        lambda pq: _complement_escapes(base, pq[0]) or agrees(pq),
        witness=lambda pq: {"p": pq[0], "q": pq[1], "reason": "asymmetric"},
        exact=decided,
        tally=True,
        note="all eight compatibility conditions agree, symmetrically",
    )


def _meet_clause(base: CompressionBase) -> Clause:
    structure = base.structure

    def sample(cfg):
        count = min(max(cfg.samples, 1), max(cfg.spot, cfg.samples // 4))
        return _pairs(base, cfg, "theorem:meet", count)

    pairs = base.cases(2, sample)
    lower_bounds = base.foci or ()

    def meets(pq):
        p, q = pq
        try:
            r = _checked_meet(base, p, q)
        except RuntimeError as exc:
            return {"p": p, "q": q, "error": str(exc)}
        leq = structure.leq
        bad = next((s for s in lower_bounds if leq(s, p) and leq(s, q) and not leq(s, r)), None)
        return bad is None or {"p": p, "q": q, "lower_bound": bad}

    return law(
        "compatible_meet",
        pairs,
        lambda pq: _complement_escapes(base, pq[0]) or meets(pq),
        lambda pq: bool(_complement_escapes(base, pq[0])) or compat_battery(base, *pq).compatible,
        note="compatible pairs have J_p(q) as greatest lower bound",
    )

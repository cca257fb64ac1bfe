"""Retractions, compressions, and compression bases.

A retraction is an order-preserving group endomorphism J whose focus
p = J(u) is an effect and which fixes every effect below its focus.  A
retraction is a compression when J(e) = 0 forces e <= u - p for effects e.
A compression base assigns a compression to each member of a sub-effect
algebra of foci, subject to a normality condition and a composition law.

Each law is stated once, as a law() over a universe of cases chosen from
the structure: the exhaustive interval, height box or declared foci of a
finite model, or seeded samples on the matrix model, whose maps are
conjugations g -> p g p.  An exhaustive universe decides its law (pass); a
sampled one spot checks a fact that holds analytically for that form
(certified) or searches a refutable claim for a counterexample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

from . import linalg, matrix_model
from .config import CheckConfig
from .effect_algebra import (
    EffectAlgebra,
    MembershipError,
    SubEffectAlgebra,
    center,
    is_normal_subalgebra,
    is_sub_effect_algebra,
)
from .elements import SymMat, conjugate
from .models import (
    Endomorphism,
    LatticeConeModel,
    MatrixModel,
    compose,
    conjugation_endo,
    endo_equal,
    identity_endo,
    zero_endo,
)
from .reporting import CERTIFIED, PASS, Clause, Report, Sample, law


# ---------------------------------------------------------------------------
# single-map checks


@dataclass(frozen=True)
class RetractionCertificate:
    """Checked evidence that one endomorphism satisfies the retraction laws."""

    structure: Any
    endo: Endomorphism
    focus: Any
    checks: tuple[tuple[str, Clause], ...]

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
    structure,
    endo: Endomorphism,
    cfg: Optional[CheckConfig] = None,
    declared_focus=None,
) -> RetractionCertificate:
    """Check the retraction laws of one map; the clauses become its checks.

    Finite structures sweep the interval, which generates the positives;
    on the matrix model the map must be conjugation by a stored projection
    and the order and fixing laws are spot checked on samples.
    """

    cfg = cfg or CheckConfig()
    finite = structure.finite
    focus = endo.apply(structure.unit)
    clauses = [] if finite else _conjugator_clauses(structure, endo)
    clauses.append(Clause("additive", CERTIFIED, note="map is linear by representation"))
    if finite:
        positives = structure.interval()
        below = _effects_below(structure, focus, cfg, None)
        notes = ("checked on the interval, which generates the positives", "")
    else:
        rng = cfg.rng("retraction")
        dim = structure.carrier.dim
        positives = Sample(
            cfg.spot, lambda: matrix_model.draw_positive(dim, rng, cfg.height_bound)
        )
        below = _effects_below(structure, endo.conjugator, cfg, rng)
        notes = (
            "conjugation preserves psd; spot checked",
            "effects below a projection are fixed by its conjugation; spot checked",
        )
    clauses += [
        law(
            "order_preserving",
            positives,
            lambda g: structure.is_positive(endo.apply(g)),
            witness="effect" if finite else "positive",
            note=notes[0],
        ),
        law(
            "focus_in_interval",
            (focus,),
            lambda f: (not finite or structure.is_member(f)) and _is_effect(structure, f),
            witness="focus",
        ),
        law(
            "fixes_below_focus",
            below,
            lambda e: endo.apply(e) == e,
            witness="effect",
            note=notes[1],
        ),
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


def _conjugator_clauses(structure, endo: Endomorphism) -> list:
    p = endo.conjugator
    if p is None:
        raise ValueError(
            "matrix-model retraction checks need the conjugation form of the map"
        )
    return [
        law("conjugator_idempotent", (p,), matrix_model.is_projection, witness="conjugator"),
        law(
            "matrix_matches_conjugator",
            (endo,),
            lambda e: endo_equal(structure.carrier, e, conjugation_endo(structure.carrier, p)),
            witness=lambda e: None,
            note="stored matrix agrees with conjugation by the stored projection",
        ),
    ]


def _is_effect(structure, x) -> bool:
    return structure.is_positive(x) and structure.leq(x, structure.unit)


def _effects_below(structure, p, cfg: CheckConfig, rng):
    """Effects below p: filtered from the interval, or cfg.spot samples p e p."""

    if structure.finite:
        return [e for e in structure.interval() if structure.leq(e, p)]
    dim = structure.carrier.dim
    return Sample(cfg.spot, lambda: conjugate(p, matrix_model.draw_effect(dim, rng)))


def is_compression(structure, endo: Endomorphism, cfg: Optional[CheckConfig] = None) -> Clause:
    """Does J(e) = 0 force e <= u - focus, for effects e?

    Finite structures sweep the interval.  The matrix universe alternates
    effects supported under u - p, which must be killed, with generic ones.
    """

    cfg = cfg or CheckConfig()
    unit = structure.unit
    comp = unit - endo.apply(unit)

    def holds(case) -> bool:
        e, in_kernel = case
        killed = endo.apply(e) == structure.zero
        if in_kernel:
            return killed and structure.leq(e, comp)
        return not killed or structure.leq(e, comp)

    if structure.finite:
        cases, note = [(e, False) for e in structure.interval()], ""
    else:
        if endo.conjugator is None:
            raise ValueError("matrix-model compression check needs the conjugation form")
        dim = structure.carrier.dim
        rng = cfg.rng("compression")

        def kernel_then_generic():
            for _ in range(cfg.spot):
                yield conjugate(comp, matrix_model.draw_effect(dim, rng)), True
                yield structure.project(matrix_model.draw_effect(dim, rng)), False

        cases = kernel_then_generic()
        note = "p e p = 0 forces e below u - p for effects; spot checked"
    return law("compression", cases, holds, witness=lambda c: {"effect": c[0]}, note=note)


def is_direct(structure, endo: Endomorphism, cfg: Optional[CheckConfig] = None) -> Clause:
    """Does J(e) <= e hold for every effect e?"""

    cfg = cfg or CheckConfig()
    if structure.finite:
        probes, note = structure.interval(), ""
    else:
        dim = structure.carrier.dim
        rng = cfg.rng("direct")
        samples = (matrix_model.draw_effect(dim, rng) for _ in range(cfg.samples))
        probes = itertools.chain(_direct_probes(dim), samples)
        note = "searched basis-aligned and sampled effects for a violation"
    return law(
        "direct",
        probes,
        lambda e: structure.leq(endo.apply(e), e),
        witness="effect",
        exact=structure.finite,
        note=note,
    )


def _direct_probes(dim: int):
    """Deterministic effects that expose non-directness of conjugations."""

    for i in range(dim):
        yield SymMat(tuple(tuple(int(i == r == c) for c in range(dim)) for r in range(dim)))
    for i in range(dim):
        for j in range(i + 1, dim):
            for sign in (1, -1):
                rows = [[0] * dim for _ in range(dim)]
                rows[i][i] = rows[j][j] = 1
                rows[i][j] = rows[j][i] = sign
                yield SymMat(tuple(map(tuple, rows)), 2)


def kernel_complement_check(
    structure,
    j: Endomorphism,
    j_comp: Endomorphism,
    cfg: Optional[CheckConfig] = None,
    budget: Optional[int] = None,
) -> Clause:
    """Mutual kernel/fixed-point exchange between complementary maps.

    For positive g: J'(g) = g exactly when J(g) = 0, and J'(g) = 0 exactly
    when J(g) = g.  Finite structures sweep the bounded positive universe;
    the matrix model mixes kernel-targeted, range-targeted and generic
    positive samples.
    """

    cfg = cfg or CheckConfig()
    zero = structure.zero

    def holds(g):
        jg = j.apply(g)
        kg = j_comp.apply(g)
        if (kg == g) != (jg == zero):
            return {"positive": g, "direction": "fixed_by_complement_vs_killed"}
        if (kg == zero) != (jg == g):
            return {"positive": g, "direction": "killed_by_complement_vs_fixed"}
        return True

    if structure.finite:
        box = structure.positive_universe(cfg.height_bound)
        return law("kernel_complement", box, holds)

    p = j.conjugator
    q = j_comp.conjugator
    if p is None or q is None:
        raise ValueError("matrix-model kernel checks need conjugation forms")
    dim = structure.carrier.dim
    rng = cfg.rng("kernel_complement")

    def positives():
        for i in range(budget if budget is not None else cfg.spot):
            raw = matrix_model.draw_positive(dim, rng, cfg.height_bound)
            if i % 3 == 1:
                yield conjugate(q, raw)
            elif i % 3 == 2:
                yield conjugate(p, raw)
            else:
                yield structure.project(raw)

    clause = law("kernel_complement", positives(), holds, exact=p + q != structure.unit)
    if clause.ok:
        clause.note = "kernel and range of complementary conjugations exchange; sampled"
    return clause


# ---------------------------------------------------------------------------
# retraction enumeration on finite models


def enumerate_retractions(
    model: LatticeConeModel, cfg: Optional[CheckConfig] = None
) -> tuple[RetractionCertificate, ...]:
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
    only at p = u.

    The search tries, summed over the foci p, |[0, p]|^(n - rank [0, p])
    candidates, where assigning interval elements to a whole basis would
    try |E|^n.
    """

    cfg = cfg or CheckConfig()
    if model.unit.is_zero():
        cert = retraction_certificate(model, zero_endo(model), cfg)
        return (cert,)

    effects = model.interval()
    spanning = [e.coords for e in effects]
    if len(_extend_basis([], spanning, model.dim)) < model.dim:
        raise ValueError("interval does not span the rational carrier")
    certs = []
    for p in effects:
        below = [e.coords for e in effects if model.leq(e, p)]
        fixed = _extend_basis([], below, model.dim)
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
            cert = retraction_certificate(model, Endomorphism(model, m), cfg)
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


def compressible_group_report(
    model: LatticeConeModel, cfg: Optional[CheckConfig] = None
) -> Report:
    """Retraction census of a finite model, with the compressibility laws.

    Checks that distinct retractions have distinct foci, that every
    retraction is a compression, and that each retraction has a
    complementary partner exchanging kernels and fixed points.
    """

    cfg = cfg or CheckConfig()
    certs = enumerate_retractions(model, cfg)
    seen: set = set()

    def first_with_focus(c) -> bool:
        fresh = c.focus not in seen
        seen.add(c.focus)
        return fresh

    def compressive(c):
        res = is_compression(model, c.endo, cfg)
        return res.ok or {"focus": c.focus, "witness": res.witness}

    def has_partner(c) -> bool:
        return any(kernel_complement_check(model, c.endo, d.endo, cfg).ok for d in certs)

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
            note=f"kernel exchange swept on the height-{cfg.height_bound} positive box",
        ),
    ]
    return Report("compressible group laws", clauses)


# ---------------------------------------------------------------------------
# compression bases


@dataclass(frozen=True, eq=False)
class CompressionBase:
    """A family of compressions indexed by a sub-effect algebra of foci.

    Declared bases carry an explicit focus list and a map from focus to
    endomorphism.  An intensional base, one without a focus list, takes
    every projection of the matrix model as a focus, with conjugation as
    the assigned map.  _memo holds what the compatibility module builds
    from the base once: its substructures, keyed by (kind, focus), and
    the restricted base of each, keyed by the substructure.
    """

    structure: Any
    foci: Optional[tuple]
    family: Optional[dict]
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def intensional(self) -> bool:
        return self.foci is None

    @property
    def unit(self):
        return self.structure.unit

    @property
    def zero(self):
        return self.structure.zero

    @cached_property
    def _focus_set(self) -> Optional[frozenset]:
        return None if self.foci is None else frozenset(self.foci)

    def contains_focus(self, p) -> bool:
        if self.intensional:
            return isinstance(p, SymMat) and matrix_model.is_projection(p)
        return p in self._focus_set

    def j(self, p) -> Endomorphism:
        """The compression assigned to the focus p."""

        if not self.contains_focus(p):
            raise MembershipError("element is not a focus of this base")
        if self.family is not None and p in self.family:
            return self.family[p]
        if self.intensional:
            return conjugation_endo(self.structure.carrier, p)
        raise MembershipError("no compression assigned to this focus")

    def complement(self, p):
        return self.unit - p


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


def projection_base(model: MatrixModel) -> CompressionBase:
    """Intensional base: every projection, mapped to its conjugation."""

    return CompressionBase(model, None, None)


def trivial_base(structure) -> CompressionBase:
    """The two-focus base {0, u} carried by every unital group."""

    carrier = structure.carrier
    pairs = [(structure.zero, zero_endo(carrier))]
    if structure.unit != structure.zero:
        pairs.append((structure.unit, identity_endo(carrier)))
    return base_from_family(structure, pairs)


def validate_compression_base(
    base: CompressionBase, cfg: Optional[CheckConfig] = None
) -> Report:
    """Check the compression-base laws and report one clause per law.

    Clauses: the foci form a sub-effect algebra, that subalgebra is normal,
    each focus gets a compression with itself as focus, and the composition
    law J_{p+r} after J_{q+r} = J_r holds whenever p + q + r stays below
    the unit.
    """

    cfg = cfg or CheckConfig()
    rep = Report(title="compression base laws")
    structure = base.structure
    algebra = EffectAlgebra(structure)

    if base.intensional:
        rep.add(_intensional_closure_clause(base, cfg))
    else:
        rep.add(is_sub_effect_algebra(algebra, base.foci))

    if structure.finite:
        rep.add(is_normal_subalgebra(algebra, SubEffectAlgebra(algebra, frozenset(base.foci))))
    else:
        rep.add(_matrix_normality_clause(base, cfg))

    rep.add(_family_clause(base, cfg))
    rep.add(_composition_clause(base, cfg))
    return rep


def _intensional_closure_clause(base: CompressionBase, cfg: CheckConfig) -> Clause:
    dim = base.structure.carrier.dim
    rng = cfg.rng("base:closure")

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
        Sample(cfg.spot, orthogonal_pair),
        closed,
        witness=("p", "q"),
        note="projections close under orthosupplement and orthogonal sum; spot checked",
    )


def _matrix_normality_clause(base: CompressionBase, cfg: CheckConfig) -> Clause:
    """Randomized refutation search for the normality condition.

    Samples members m1, m2 of the base and candidate effects d below both;
    whenever m1 - d, m2 - d are effects with (m1 - d) + (m2 - d) + d below
    the unit, the premises of normality hold with e + d = m1 and
    f + d = m2, so d must itself be a focus.
    """

    structure = base.structure
    dim = structure.carrier.dim
    rng = cfg.rng("base:normality")
    pool = None if base.intensional else list(base.foci)

    def member():
        if pool is None:
            return matrix_model.draw_projection(dim, rng)
        return pool[rng.randrange(len(pool))]

    def triples():
        for i in range(max(cfg.samples, 1)):
            m1 = member()
            m2 = member()
            if i % 5 == 0:
                # Premise holds with d a focus whenever m1 <= m2; the condition
                # must then confirm membership rather than refute it.
                d = m1
            elif i % 2 == 0:
                # Candidate pinched below m1; escapes the base unless forced back.
                d = conjugate(m1, matrix_model.draw_effect(dim, rng))
            else:
                d = conjugate(m1, conjugate(m2, matrix_model.draw_effect(dim, rng)))
            yield d, m1, m2

    def premise(case) -> bool:
        d, m1, m2 = case
        e = m1 - d
        f = m2 - d
        return (
            structure.is_positive(e)
            and structure.is_positive(f)
            and structure.leq(e + f + d, structure.unit)
        )

    clause = law(
        "foci_normal_subalgebra",
        triples(),
        lambda case: base.contains_focus(case[0]),
        premise,
        witness=("d", "m1", "m2"),
        note="randomized search over premise-satisfying triples found no escape",
    )
    if not clause.ok:
        clause.note = "normality violated"
    return clause


def _family_clause(base: CompressionBase, cfg: CheckConfig) -> Clause:
    structure = base.structure

    def compression_at(p):
        cert = retraction_certificate(structure, base.j(p), cfg, declared_focus=p)
        bad = next((c for _, c in cert.checks if not c.ok), None)
        if bad is not None:
            return {"focus": p, "check": bad.name, "witness": bad.witness}
        comp = is_compression(structure, base.j(p), cfg)
        return comp.ok or {"focus": p, "check": "compression", "witness": comp.witness}

    if base.intensional:
        dim = structure.carrier.dim
        rng = cfg.rng("base:family")
        foci = Sample(cfg.spot, lambda: matrix_model.draw_projection(dim, rng))
        note = "conjugation by a projection is a compression with that focus; sampled"
    else:
        foci, note = base.foci, ""
    return law("family_member_compression", foci, compression_at, note=note)


def _composition_clause(base: CompressionBase, cfg: CheckConfig) -> Clause:
    """J_{p+r} after J_{q+r} is J_r for orthogonal p, q, r.

    Declared bases sweep every focus triple with p + q + r below the unit
    and list the first triples checked; an intensional base samples
    orthogonal triples of projections in random frames.
    """

    structure = base.structure
    rows: list = []

    def holds(pqr):
        p, q, r = pqr
        if not (base.contains_focus(p + r) and base.contains_focus(q + r)):
            return {"p": p, "q": q, "r": r, "reason": "sum escapes the base"}
        ok = _composition_holds(base, structure, p, q, r)
        rows.append({"p": p, "q": q, "r": r, "ok": ok})
        return ok

    if base.intensional:
        dim = structure.carrier.dim
        rng = cfg.rng("base:composition")

        def orthogonal_triple():
            frame = matrix_model.cayley_orthogonal(dim, rng)
            slots = [rng.randint(0, 2) for _ in range(dim)]
            masks = [[1 if s == k else 0 for s in slots] for k in range(3)]
            return tuple(matrix_model.frame_sandwich(frame, m) for m in masks)

        return law(
            "composition_law",
            Sample(cfg.spot, orthogonal_triple),
            holds,
            witness=("p", "q", "r"),
            tally=True,
            note="sampled orthogonal triples in random frames",
        )

    clause = law(
        "composition_law",
        itertools.product(base.foci, repeat=3),
        holds,
        lambda pqr: structure.leq(pqr[0] + pqr[1] + pqr[2], structure.unit),
        witness=("p", "q", "r"),
        note="all focus triples with p + q + r below the unit",
    )
    clause.items = rows if len(rows) <= 24 else None
    return clause


def _composition_holds(base: CompressionBase, structure, p, q, r) -> bool:
    left = compose(base.j(p + r), base.j(q + r))
    return endo_equal(structure, left, base.j(r))


def direct_compression_base(
    model: LatticeConeModel, cfg: Optional[CheckConfig] = None
) -> tuple[CompressionBase, Report]:
    """The base of direct compressions of a finite model, with its laws.

    Direct means J(e) <= e on effects.  The report records the census, that
    every direct focus is central, and the full base validation for the
    resulting family.
    """

    cfg = cfg or CheckConfig()
    rep = Report(title="direct compression base")
    certs = enumerate_retractions(model, cfg)
    direct = [c for c in certs if is_direct(model, c.endo, cfg).ok]
    rep.add(
        Clause(
            "direct_retraction_census",
            PASS,
            checked=len(certs),
            note=f"{len(direct)} of {len(certs)} retractions are direct",
            items=[{"focus": c.focus} for c in direct],
        )
    )

    algebra = EffectAlgebra(model)
    central = center(algebra)
    foci = [c.focus for c in direct]
    rep.add(law("direct_foci_central", foci, lambda p: p in central, witness="focus"))

    base = base_from_family(model, [(c.focus, c.endo) for c in direct])
    rep.extend(validate_compression_base(base, cfg))
    return base, rep

import json
import pytest

from fractions import Fraction
from itertools import chain, combinations, count, product
from math import gcd, lcm
from pathlib import Path

from hypothesis import assume, strategies as st

from compbase import (
    CheckConfig,
    Endomorphism,
    LatticeConeModel,
    MembershipError,
    SymMat,
    Vec,
    base_from_family,
    commutant_substructure,
    compose,
    conjugate,
    endo_equal,
    endo_from_int_matrix,
    enumerate_retractions,
    image_substructure,
    load_model,
    linalg,
    matrix_model,
    models,
)
from compbase.compatibility import (
    _absorbs,
    _complement_escapes,
    _interval_characterization_clause,
    restricted_base,
)
from compbase.compression import (
    _extend_basis,
    retraction_certificate,
    validate_compression_base,
)
from compbase.effect_algebra import MackeyTriple, is_effect
from compbase.models import UnboundedIntervalError
from compbase.reporting import Report, Sample, jsonable, law

REPO = Path(__file__).resolve().parent.parent
MODELS_DIR = REPO / "models"
FIXTURES_DIR = MODELS_DIR / "fixtures"

BUNDLED = ("m1", "m2", "m3", "m4", "m5")
LATTICE = ("m1", "m2", "m5")
MATRIX = ("m3", "m4")
LATTICE_FIXTURES = (
    "corrupt_focus_outside_interval",
    "corrupt_missing_closure",
    "corrupt_nonnormal_foci",
    "corrupt_swapped_foci",
)


@pytest.fixture(scope="session")
def fast_cfg():
    """Small sample counts keep the matrix sweeps quick in unit tests."""
    return CheckConfig(samples=40, seed=0)


@pytest.fixture(scope="session")
def bundled():
    """name -> (model, declared base) for every bundled model file."""
    return {name: load_model(MODELS_DIR / f"{name}.json") for name in BUNDLED}


def stdlib_json(x) -> str:
    """The reference text of render_json(x): the plain copy jsonable(x)
    through the stdlib's indenting encoder."""
    return json.dumps(jsonable(x), indent=2, sort_keys=True) + "\n"


@st.composite
def seeded_cones(draw):
    """Two or three cone rows in Z^2 and a unit.

    The unit is adj(R) s for the first two rows R and some s > 0, so
    R u = det(R) s: strictly inside the cone those two rows cut out.
    """
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.tuples(entry, entry), min_size=2, max_size=3))
    (a, b), (c, d) = rows[:2]
    det = a * d - b * c
    assume(det != 0)
    s, t = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    sign = 1 if det > 0 else -1
    return rows, (sign * (d * s - b * t), sign * (a * t - c * s))


def retraction_base(rows, unit):
    """The base of one retraction per focus of the Z^2 cone `rows` with
    `unit`, as seeded_cones draws them; an example whose interval is
    infinite or does not span is rejected."""

    model = LatticeConeModel(2, tuple(map(tuple, rows)), Vec(unit))
    try:
        certs = enumerate_retractions(model)
    except ValueError:
        assume(False)
    family = {}
    for cert in certs:
        family.setdefault(cert.focus, cert.endo)
    return base_from_family(model, family.items())


def interval_sweep_equal(structure, a, b):
    """a and b agree on every element of the structure's unit interval.

    The interval sweep that models.endo_equal replaced with one matrix
    comparison on finite structures, kept as its oracle.
    """
    return all(a.apply(e) == b.apply(e) for e in structure.interval())


def corner_model(unit) -> dict:
    """The standard cone with `unit`, based on every block of coordinates."""

    dim = len(unit)
    compressions = []
    for bits in product((0, 1), repeat=dim):
        compressions.append(
            {
                "focus": [b * x for b, x in zip(bits, unit)],
                "matrix": [[b if i == j else 0 for j in range(dim)] for i, b in enumerate(bits)],
            }
        )
    cone = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return {"kind": "lattice_cone", "dim": dim, "cone_rows": cone, "unit": list(unit),
            "compressions": compressions}


def corner_base(unit):
    """The declared base of corner_model(unit)."""

    doc = corner_model(unit)
    model = LatticeConeModel(len(unit), tuple(map(tuple, doc["cone_rows"])), Vec(tuple(unit)))
    family = [
        (Vec(tuple(c["focus"])), endo_from_int_matrix(model, c["matrix"]))
        for c in doc["compressions"]
    ]
    return base_from_family(model, family)


def focus_substructures(base):
    """The image and the commutant of every focus of a declared base, where
    they exist: a commutant needs the complement of its focus as a focus."""

    for v in base.foci:
        for build in (image_substructure, commutant_substructure):
            try:
                yield build(base, v)
            except MembershipError:
                continue


def with_restricted_bases(base):
    """The base, then the restricted base of each of its focus_substructures."""

    yield base
    for sub in focus_substructures(base):
        yield restricted_base(base, sub)


def minors_gcd_index(vectors, dim: int) -> int:
    """The index in Z^dim of the group the integer `vectors` generate: the
    gcd of the dim x dim minors of their matrix, each by cofactor
    expansion; 0 when there are fewer than dim vectors or all minors vanish."""

    def det(rows):
        if not rows:
            return 1
        return sum(
            (-1) ** j * rows[0][j] * det([r[:j] + r[j + 1 :] for r in rows[1:]])
            for j in range(len(rows))
        )

    index = 0
    for combo in combinations([tuple(v) for v in vectors], dim):
        index = gcd(index, abs(det(list(combo))))
    return index


def one_sided_points(rows, rhs, dim: int) -> list:
    """All integer points x with row_i . x >= rhs_i, in lexicographic order:
    the one-sided solver that models.integer_points replaced, kept as its
    oracle.  Box bounds are seeded from rows constrained from both sides
    (one_sided_seed_box) and tightened by propagation over the
    inequalities; a coordinate that never acquires both bounds raises."""

    for r, b in zip(rows, rhs):
        if not any(r) and b > 0:
            return []
    cons = [(tuple(r), b) for r, b in zip(rows, rhs) if any(r)]
    lo, hi = one_sided_seed_box(cons, dim)
    if any(l is not None and h is not None and l > h for l, h in zip(lo, hi)):
        return []
    for _ in range(64):
        changed = False
        for a, b in cons:
            for j in range(dim):
                if a[j] == 0:
                    continue
                s = 0
                bounded = True
                for k in range(dim):
                    if k == j or a[k] == 0:
                        continue
                    cap = hi[k] if a[k] > 0 else lo[k]
                    if cap is None:
                        bounded = False
                        break
                    s += a[k] * cap
                if not bounded:
                    continue
                if a[j] > 0:
                    nl = -((s - b) // a[j])
                    if lo[j] is None or nl > lo[j]:
                        lo[j] = nl
                        changed = True
                else:
                    nh = (b - s) // a[j]
                    if hi[j] is None or nh < hi[j]:
                        hi[j] = nh
                        changed = True
                if lo[j] is not None and hi[j] is not None and lo[j] > hi[j]:
                    return []
        if not changed:
            break
    if any(l is None or h is None for l, h in zip(lo, hi)):
        raise UnboundedIntervalError("unit interval infinite: no finite box bounds")
    total = 1
    for l, h in zip(lo, hi):
        total *= h - l + 1
        if total > models._POINT_CAP:
            raise UnboundedIntervalError("interval too large to enumerate")
    return [
        pt
        for pt in product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        if all(sum(x * y for x, y in zip(a, pt)) >= b for a, b in cons)
    ]


def one_sided_seed_box(cons, dim: int) -> tuple[list, list]:
    """Coordinate bounds implied by dim independent rows a with both
    a . x >= lo and -a . x >= -hi among `cons`, by the adjugate of their
    matrix; every bound stays open when there are fewer than dim."""

    floor: dict = {}
    for a, b in cons:
        floor[a] = max(b, floor.get(a, b))
    bands: list = []
    for a in floor:
        neg = tuple(-x for x in a)
        cand = bands + [a]
        if neg in floor and linalg.rank(cand) == len(cand):
            bands.append(a)
        if len(bands) == dim:
            break
    if len(bands) < dim:
        return [None] * dim, [None] * dim
    adj, det = linalg.invert(bands)
    if det < 0:
        adj, det = tuple(tuple(-c for c in row) for row in adj), -det
    ranges = [(floor[a], -floor[tuple(-x for x in a)]) for a in bands]
    lo, hi = [], []
    for row in adj:
        ends = [(c * y_lo, c * y_hi) for c, (y_lo, y_hi) in zip(row, ranges)]
        lo.append(-(-sum(min(e) for e in ends) // det))
        hi.append(sum(max(e) for e in ends) // det)
    return lo, hi


def filtered_band(sub, lo, hi):
    """The members of the parent's universe between lo*unit and hi*unit, by
    filtering that universe element by element.

    The rule that models.positive_box replaced with an enumeration of the
    member lattice, kept as its oracle.  A nested substructure filters its
    parent's band as this oracle computes it, down to the model's box.
    """
    parent = sub.parent
    if getattr(parent, "parent", None) is not None:
        cases = filtered_band(parent, lo, hi)
    else:
        cases = signed_box(parent, hi) if lo < 0 else parent.positive_universe(hi)
    top, bot = sub.unit.scale(hi), sub.unit.scale(lo)
    return tuple(
        g
        for g in cases
        if sub.is_member(g) and parent.leq(g, top) and (lo == 0 or parent.leq(bot, g))
    )


def fixed_points_band(sub, n):
    """The members of the parent's positive box of height n below n*unit,
    with membership tested as den*g == M g for the projector M / den, so no
    point is sent off the lattice and nothing raises.  A nested
    substructure reads its parent's band as this oracle computes it, down
    to the model's box."""

    parent = sub.parent
    if getattr(parent, "parent", None) is not None:
        cases = fixed_points_band(parent, n)
    else:
        cases = parent.positive_universe(n)
    p = sub.projector
    top = sub.unit.scale(n)
    return tuple(
        g
        for g in cases
        if linalg.mat_vec(p.matrix, g.coords) == tuple(p.den * x for x in g.coords)
        and parent.leq(g, top)
    )


def signed_box(structure, n):
    """The members g of a finite structure with -n*unit <= g <= n*unit, in
    lexicographic order: the universe the lattice sweeps below read.  A
    model's is the band models.range_band lists on Z^dim; a substructure's
    filters its parent's (filtered_band)."""

    if getattr(structure, "parent", None) is not None:
        return filtered_band(structure, -n, n)
    identity = linalg.identity(structure.dim)
    return tuple(models.range_band(structure, identity, (structure.unit,), -n, n))


# ---------------------------------------------------------------------------
# height-box sweeps of the lattice laws
#
# The package decides these laws over all of G from the generators of
# rational cones (models.cone_generators, cone_cases).  These are the
# sweeps over height boxes that the exact rules replaced, kept as their
# oracles: an exact pass must pass every box, and the witness of an exact
# fail must fail the sweep of the single case.  Each takes its universe of
# cases, a box or one witness.


def absorption_sweep(base, cases):
    """commutant_absorption: _absorbs on each (p, g); a focus whose
    complement is no focus fails."""

    return law(
        "commutant_absorption",
        cases,
        lambda pg: _complement_escapes(base, pg[0]) or _absorbs(base, *pg),
    )


def kernel_sweep(structure, j, j_comp, positives):
    """kernel_complement on each positive g."""

    zero = structure.zero

    def holds(g):
        jg = j.apply(g)
        kg = j_comp.apply(g)
        if (kg == g) != (jg == zero):
            return {"positive": g, "direction": "fixed_by_complement_vs_killed"}
        if (kg == zero) != (jg == g):
            return {"positive": g, "direction": "killed_by_complement_vs_fixed"}
        return True

    return law("kernel_complement", positives, holds)


def interval_order_preserving(structure, endo):
    """order_preserving of endo on a finite structure, swept over its unit
    interval: the retraction certificate's rule before compression.order_preserving
    decided it on cone generators.  It is the law over all of G only where
    the interval generates the positives."""

    return law(
        "order_preserving",
        structure.interval(),
        lambda g: structure.is_positive(endo.apply(g)),
        witness="effect",
        note="checked on the interval, which generates the positives",
    )


def unit_order_unit_sweep(sub, n):
    """A substructure's unit_order_unit past its row test: n*unit is a
    member that dominates every element of the signed height-n box."""

    top = sub.unit.scale(n)
    top_member = sub.is_member(top)
    return law(
        "unit_order_unit",
        signed_box(sub, n),
        lambda g: top_member and sub.is_positive(top - g),
        witness="element",
    )


def product_checks(base, v) -> dict:
    """The single-case checks of direct_product_report at the focus v, by
    clause name: order_preserving of eta and kappa on a positive of the
    commutant C(v), fixes_image on an image element, pairing_surjective on
    a pair (h, k) and pairing_recovers_element and order_componentwise on
    an element of C(v)."""

    structure = base.structure
    comp = base.complement(v)
    sub_c = commutant_substructure(base, v)
    eta, kappa = base.j(v), base.j(comp)
    pos = structure.is_positive

    def realized(hk) -> bool:
        h, k = hk
        s = h + k
        return sub_c.is_member(s) and eta.apply(s) == h and kappa.apply(s) == k

    return {
        "eta_order_preserving": lambda g: pos(eta.apply(g)),
        "kappa_order_preserving": lambda g: pos(kappa.apply(g)),
        "eta_fixes_image": lambda h: sub_c.is_member(h) and eta.apply(h) == h,
        "kappa_fixes_image": lambda k: sub_c.is_member(k) and kappa.apply(k) == k,
        "pairing_recovers_element": lambda g: eta.apply(g) + kappa.apply(g) == g,
        "pairing_surjective": realized,
        "order_componentwise": lambda g: pos(g) == (pos(eta.apply(g)) and pos(kappa.apply(g))),
    }


def product_sweeps(base, v, n) -> dict:
    """The clauses of direct_product_report at the focus v by the sweeps
    they had: the order laws on C(v)'s positive height-n box, the others on
    the signed height-n boxes of C(v) and of the images of v and u - v."""

    comp = base.complement(v)
    sub_c = commutant_substructure(base, v)
    box_h = signed_box(image_substructure(base, v), n)
    box_k = signed_box(image_substructure(base, comp), n)
    box_c = signed_box(sub_c, n)
    checks = product_checks(base, v)
    universes = {
        "eta_order_preserving": sub_c.positive_universe(n),
        "kappa_order_preserving": sub_c.positive_universe(n),
        "eta_fixes_image": box_h,
        "kappa_fixes_image": box_k,
        "pairing_recovers_element": box_c,
        "pairing_surjective": tuple(product(box_h, box_k)),
        "order_componentwise": box_c,
    }
    return {name: law(name, universes[name], check) for name, check in checks.items()}


# ---------------------------------------------------------------------------
# samplers of positive and signed matrices, for the oracles below


def draw_positive(dim, rng, height):
    """Sum of at most `height` random effects; lies between 0 and height*unit."""
    total = SymMat.zero(dim)
    for _ in range(rng.randint(0, height)):
        total = total + matrix_model.draw_effect(dim, rng)
    return total


def draw_signed(dim, rng, height):
    return draw_positive(dim, rng, height) - draw_positive(dim, rng, height)


# ---------------------------------------------------------------------------
# sampled oracles of the matrix path
#
# The package decides these laws on matrix structures exactly, from the
# conjugator of each map (see compression.retraction_certificate,
# is_compression, is_direct, kernel_complement_check,
# _matrix_normality_clause, compatibility._checked_meet, the theorem
# sweeps, the substructure and product sections, and
# models._validate_matrix).  These are the seeded sweeps those rules
# replaced, kept to check that both routes reach the same verdicts.  Each
# rests on drawn cases, so each reads certified when it finds no witness:
# a universe made by a generator is passed with exact=False, since law()
# reads only a Sample as sampled.


def sampled_retraction_laws(structure, endo, cfg, height) -> dict:
    """order_preserving and fixes_below_focus of a conjugation, spot checked
    on positives of height at most height (draw_positive)."""

    rng = cfg.rng("retraction")
    dim = structure.carrier.dim
    p = endo.conjugator
    positives = Sample(cfg.spot, lambda: draw_positive(dim, rng, height))
    below = Sample(cfg.spot, lambda: conjugate(p, matrix_model.draw_effect(dim, rng)))
    return {
        "order_preserving": law(
            "order_preserving", positives, lambda g: structure.is_positive(endo.apply(g))
        ),
        "fixes_below_focus": law("fixes_below_focus", below, lambda e: endo.apply(e) == e),
    }


def sampled_compression(structure, endo, cfg):
    """Effects under u - focus, which must be killed, alternating with generic ones."""

    unit = structure.unit
    comp = unit - endo.apply(unit)
    dim = structure.carrier.dim
    rng = cfg.rng("compression")

    def holds(case) -> bool:
        e, in_kernel = case
        killed = endo.apply(e) == structure.zero
        if in_kernel:
            return killed and structure.leq(e, comp)
        return not killed or structure.leq(e, comp)

    def kernel_then_generic():
        for _ in range(cfg.spot):
            yield conjugate(comp, matrix_model.draw_effect(dim, rng)), True
            yield structure.project(matrix_model.draw_effect(dim, rng)), False

    return law(
        "compression",
        kernel_then_generic(),
        holds,
        witness=lambda c: {"effect": c[0]},
        exact=False,
    )


def sampled_normality(base, cfg):
    """Randomized refutation search for normality over sampled triples (d, m1, m2).

    d is m1, or an effect pinched below m1 or below m1 and m2; whenever
    m1 - d and m2 - d are effects with (m1 - d) + (m2 - d) + d below the
    unit, d must be a focus.
    """

    structure = base.structure
    dim = structure.carrier.dim
    rng = cfg.rng("base:normality")
    pool = None if base.foci is None else list(base.foci)

    def member():
        if pool is None:
            return matrix_model.draw_projection(dim, rng)
        return pool[rng.randrange(len(pool))]

    def triples():
        for i in range(max(cfg.samples, 1)):
            m1 = member()
            m2 = member()
            if i % 5 == 0:
                d = m1
            elif i % 2 == 0:
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

    return law(
        "foci_normal_subalgebra",
        triples(),
        lambda case: base.contains_focus(case[0]),
        premise,
        witness=("d", "m1", "m2"),
        exact=False,
    )


def sampled_meet_glb(structure, p, q, r, cfg):
    """Every sampled effect below p and q lies below r."""

    dim = structure.carrier.dim
    rng = cfg.rng("meet")
    below_p = Sample(cfg.spot, lambda: conjugate(p, matrix_model.draw_effect(dim, rng)))
    return law("meet_glb", below_p, lambda e: not structure.leq(e, q) or structure.leq(e, r))


def sampled_unital_group(structure, cfg, height) -> dict:
    """The order clauses of a matrix structure's unital-group axioms, spot
    checked on elements of height at most height (draw_positive)."""

    rng = cfg.rng()
    dim = structure.carrier.dim

    def sample(draw, *args):
        return structure.project(draw(dim, rng, *args))

    def ordered_triple():
        a = sample(draw_signed, height)
        b = a + sample(draw_positive, height)
        return a, b, sample(draw_signed, height)

    def dominated(g) -> bool:
        unit = structure.unit
        return any(structure.is_positive(unit.scale(k) - g) for k in range(4 * height + 1))

    return {
        "order_translation_invariant": law(
            "order_translation_invariant",
            Sample(cfg.spot, ordered_triple),
            lambda abk: structure.leq(abk[0] + abk[2], abk[1] + abk[2]),
        ),
        "order_antisymmetric": law(
            "order_antisymmetric",
            Sample(cfg.spot, lambda: sample(draw_positive, height)),
            lambda g: g.is_zero() or not structure.is_positive(-g),
        ),
        "unit_order_unit": law(
            "unit_order_unit",
            Sample(cfg.spot, lambda: sample(draw_signed, height)),
            dominated,
        ),
        **sampled_interval_laws(structure, cfg, height),
    }


def sampled_interval_laws(structure, cfg, height) -> dict:
    """The unital-group clauses about the unit interval of a matrix
    structure, on drawn effects and positives of height at most height
    (draw_positive) projected into it."""

    rng = cfg.rng("interval")
    dim = structure.carrier.dim
    unit = structure.unit

    def generated(g) -> bool:
        """g is k copies of g/k, a member in [0, unit], for some k <= 4n."""
        return structure.is_member(g) and any(
            structure.leq(g.scale(Fraction(1, k)), unit) for k in range(1, 4 * height + 1)
        )

    return {
        "interval_sampled": law(
            "interval_sampled",
            Sample(cfg.spot, lambda: structure.project(matrix_model.draw_effect(dim, rng))),
            lambda e: structure.is_positive(e) and structure.leq(e, unit),
        ),
        "interval_generates_positives": law(
            "interval_generates_positives",
            Sample(cfg.spot, lambda: structure.project(draw_positive(dim, rng, height))),
            generated,
            lambda g: structure.is_member(g) and structure.is_positive(g),
        ),
    }


def sampled_kernel_complement(structure, j, j_comp, cfg, height):
    """The kernel/fixed-point exchange on kernel-targeted, range-targeted and
    generic positive samples of the structure, of height at most height."""

    dim = structure.carrier.dim
    rng = cfg.rng("kernel_complement")
    zero = structure.zero

    def holds(g) -> bool:
        jg = j.apply(g)
        kg = j_comp.apply(g)
        return (kg == g) == (jg == zero) and (kg == zero) == (jg == g)

    def positives():
        for i in range(cfg.spot):
            raw = draw_positive(dim, rng, height)
            if i % 3 == 1:
                yield conjugate(j_comp.conjugator, raw)
            elif i % 3 == 2:
                yield conjugate(j.conjugator, raw)
            else:
                yield structure.project(raw)

    return law("kernel_complement", positives(), holds, exact=False)


def sampled_theorem_laws(base, cfg, height) -> dict:
    """The theorem sweeps that quantify over effects or elements, spot
    checked at every declared focus of a matrix base, on elements of
    height at most height (draw_positive)."""

    structure = base.structure
    unit = structure.unit
    dim = structure.carrier.dim
    leq = structure.leq
    effect = matrix_model.draw_effect
    family_rng = cfg.rng("theorem:family:kill")
    commutant_rng = cfg.rng("theorem:commutant:g")
    omp_rng = cfg.rng("omp:interval")

    def shaped(p) -> bool:
        j = base.j(p)
        if not (endo_equal(structure, compose(j, j), j) and j.apply(p) == p):
            return False
        below = Sample(cfg.spot, lambda: conjugate(unit - p, effect(dim, family_rng)))
        return all(j.apply(e) == structure.zero for e in below)

    def exchanges(p) -> bool:
        comp = base.j(unit - p)
        return sampled_kernel_complement(structure, base.j(p), comp, cfg, height).ok

    def split(p, draw):
        a = draw(dim, commutant_rng, height)
        return conjugate(p, a) + conjugate(unit - p, draw(dim, commutant_rng, height))

    def elements(p):
        for i in range(cfg.spot):
            if i % 3 == 0:
                g = draw_signed(dim, commutant_rng, height)
            elif i % 3 == 1:
                g = split(p, draw_signed)
            else:
                g = split(p, draw_positive)
            yield structure.project(g)

    def below(p, k):
        return tuple(conjugate(p, effect(dim, omp_rng)) for _ in range(k))

    def spot(k):
        return ((p, below(p, k)) for p in base.foci for _ in range(cfg.spot))

    def sharp(pe) -> bool:
        p, (e,) = pe
        return e == structure.zero or not leq(e, unit - p)

    def principal(pef) -> bool:
        p, (e, f) = pef
        return not leq(e + f, unit) or leq(e + f, p)

    # the foci are exhaustive, but each focus is checked on drawn effects
    return {
        "family_shape": law("family_shape", base.foci, shaped, exact=False),
        "kernel_complement_fixpoint": law(
            "kernel_complement_fixpoint", base.foci, exchanges, exact=False
        ),
        "commutant_absorption": law(
            "commutant_absorption",
            ((p, g) for p in base.foci for g in elements(p)),
            lambda pg: _absorbs(base, *pg),
            exact=False,
        ),
        "omp_sharp": law("omp_sharp", spot(1), sharp, exact=False),
        "omp_principal": law("omp_principal", spot(2), principal, exact=False),
    }


def full_composition_clause(base):
    """composition_law by the sweep it had before its premise was pruned:
    every declared focus triple, with p + q + r formed and compared to the
    unit, and every composed map built afresh.  The oracle of
    compression._composition_clause on declared bases."""

    structure = base.structure
    rows: list = []

    def holds(pqr):
        p, q, r = pqr
        if not (base.contains_focus(p + r) and base.contains_focus(q + r)):
            return {"p": p, "q": q, "r": r, "reason": "sum escapes the base"}
        ok = endo_equal(structure, compose(base.j(p + r), base.j(q + r)), base.j(r))
        rows.append({"p": p, "q": q, "r": r, "ok": ok})
        return ok

    leq = cone_leq(structure)
    clause = law(
        "composition_law",
        product(base.foci, repeat=3),
        holds,
        lambda pqr: leq(pqr[0] + pqr[1] + pqr[2], structure.unit),
        witness=("p", "q", "r"),
        note="all focus triples with p + q + r below the unit",
    )
    clause.items = rows if len(rows) <= 24 else None
    return clause


def basis_conjugation_endo(carrier, p):
    """The map g -> p g p, built column by column: column k is P B_k P
    vectorized for the k-th basis matrix B_k, over d^2 for p = P / d."""
    cols = []
    for b in carrier.basis():
        pbp = linalg.mat_mul(linalg.mat_mul(p.num, b.num), p.num)
        cols.append([pbp[i][j] for i, j in carrier.sym_pairs])
    return Endomorphism(carrier, linalg.transpose(cols), p.den * p.den, p)


def cone_leq(structure):
    """a <= b as the positivity of b - a, which no order memo answers: the
    order of the oracles below."""
    return lambda a, b: structure.is_positive(b - a)


def full_family_shape(base):
    """family_shape by the sweep it had before it was derived: each member
    is idempotent, fixes its focus and kills every effect below u - p.
    The oracle of compatibility._family_shape_clause on finite bases."""

    structure = base.structure
    leq = cone_leq(structure)

    def shaped(p):
        j = base.j(p)
        if not endo_equal(structure, compose(j, j), j):
            return {"focus": p, "law": "idempotent"}
        if j.apply(p) != p:
            return {"focus": p, "law": "fixes_focus"}
        below = (e for e in structure.interval() if leq(e, structure.unit - p))
        bad = next((e for e in below if j.apply(e) != structure.zero), None)
        return bad is None or {"focus": p, "law": "kills_complement", "effect": bad}

    note = "each member is idempotent, fixes its focus, kills below the complement"
    return law("family_shape", base.foci, shaped, tally=True, note=note)


def full_omp_sharp(base):
    """omp_sharp by the sweep it had before it was derived: every focus p
    against every interval element e, which must not lie below both p and
    u - p unless it is zero.  The oracle of compatibility._omp_sharp on
    finite bases."""

    structure = base.structure
    leq = cone_leq(structure)

    def holds(pe) -> bool:
        p, e = pe
        return not (leq(e, p) and leq(e, structure.unit - p) and e != structure.zero)

    return law(
        "omp_sharp",
        product(base.foci, structure.interval()),
        holds,
        witness=("p", "effect"),
        note="no nonzero effect sits below both p and its complement",
    )


def full_omp_principal(base):
    """omp_principal by the sweep it had before its premise came first:
    every focus against every pair of interval elements, keeping those with
    e, f <= p and e + f <= u.  The oracle of compatibility._omp_principal
    on finite bases."""

    structure = base.structure
    leq = cone_leq(structure)

    def defined_below(pef) -> bool:
        p, (e, f) = pef
        return leq(e, p) and leq(f, p) and leq(e + f, structure.unit)

    return law(
        "omp_principal",
        product(base.foci, product(structure.interval(), repeat=2)),
        lambda pef: leq(pef[1][0] + pef[1][1], pef[0]),
        defined_below,
        witness=lambda pef: {"p": pef[0], "e": pef[1][0], "f": pef[1][1]},
        note="defined sums of effects below p stay below p",
    )


def full_greatest_lower_bound(structure, p, q, r) -> bool:
    """Every effect below p and q is below r, over the whole interval: the
    oracle of compatibility._greatest_lower_bound on finite structures."""

    leq = cone_leq(structure)
    return all(leq(e, r) for e in structure.interval() if leq(e, p) and leq(e, q))


def full_mackey_triples(structure, e, f) -> tuple:
    """The Mackey triples of (e, f) with d from the whole interval, in its
    order: the oracle of mackey_decompositions without `within`."""

    leq = cone_leq(structure)
    return tuple(
        MackeyTriple(e - d, f - d, d)
        for d in structure.interval()
        if leq(d, e) and leq(d, f) and leq(e + f - d, structure.unit)
    )


def full_interval_characterization(base, sub):
    """interval_characterization of a finite parent by the sweep it had
    before it was derived, with the effects below v and below u - v
    (commutant) picked from the whole interval.  The oracle of
    compatibility._interval_characterization_clause on finite parents."""

    parent = base.structure
    leq = cone_leq(parent)
    v = sub.v
    interval = parent.interval()
    if sub.kind == "image":
        return law(
            "interval_characterization",
            interval,
            lambda e: sub.is_member(e) == leq(e, v),
            witness="effect",
            note="membership in the image coincides with lying below v",
        )
    comp = parent.unit - v
    jv, jc = base.j(v), base.j(comp)

    def splits(e) -> bool:
        x, y = jv.apply(e), jc.apply(e)
        effects = all(parent.is_positive(z) and leq(z, parent.unit) for z in (x, y))
        return effects and leq(x, v) and leq(y, comp) and x + y == e

    def holds(case):
        if len(case) == 2:
            return sub.is_member(case[0] + case[1]) or {"e1": case[0], "e2": case[1]}
        e = case[0]
        return not sub.is_member(e) or splits(e) or {"effect": e}

    los = [e for e in interval if leq(e, v)]
    his = [e for e in interval if leq(e, comp)]
    cases = chain(product(los, his), zip(interval))
    note = "commutant effects are exactly sums from below v and below u - v"
    clause = law("interval_characterization", cases, holds, note=note)
    if not clause.ok:
        clause.note = ""
    return clause


def sampled_interval_characterization(base, sub, cfg):
    """interval_characterization of a matrix substructure on drawn effects.

    The effects are drawn from the carrier and projected into the parent.
    Image: membership against lying below v, on generic effects and on
    effects conjugated by v in turn.  Commutant: a sum of effects
    conjugated by v and by u - v must be a member effect, and a member
    effect must split under J_v and J_{u-v}.
    """

    parent = base.structure
    v = sub.v
    dim = parent.carrier.dim
    rng = cfg.rng(f"substructure:{sub.kind}")
    turn = count()

    def draw(dim, rng):
        return parent.project(matrix_model.draw_effect(dim, rng))

    if sub.kind == "image":

        def effect():
            e = draw(dim, rng)
            return conjugate(v, e) if next(turn) % 2 else e

        return law(
            "interval_characterization",
            Sample(cfg.spot, effect),
            lambda e: sub.is_member(e) == parent.leq(e, v),
        )

    comp = parent.unit - v
    jv, jc = base.j(v), base.j(comp)

    def splits(e) -> bool:
        x, y = jv.apply(e), jc.apply(e)
        return (
            is_effect(parent, x)
            and is_effect(parent, y)
            and parent.leq(x, v)
            and parent.leq(y, comp)
            and x + y == e
        )

    def holds(case):
        i, a, b = case
        g = conjugate(v, a) + conjugate(comp, b)
        if not (sub.is_member(g) and is_effect(parent, g)):
            return {"effect": g, "direction": "sum_not_member"}
        e = conjugate(v, b) + conjugate(comp, a) if i % 2 else g
        if sub.is_member(e) and is_effect(parent, e) and not splits(e):
            return {"effect": e, "direction": "member_does_not_split"}
        return True

    return law(
        "interval_characterization",
        Sample(cfg.spot, lambda: (next(turn), draw(dim, rng), draw(dim, rng))),
        holds,
    )


def sampled_morphism_order(src, tgt, phi, cfg, height, prefix=""):
    """order_preserving of phi from src to tgt on drawn positives of src,
    of height at most height."""

    rng = cfg.rng("morphism:" + prefix)
    dim = src.carrier.dim
    positives = Sample(cfg.spot, lambda: src.project(draw_positive(dim, rng, height)))
    return law(
        prefix + "order_preserving",
        positives,
        lambda g: tgt.is_positive(phi.apply(g)),
        src.is_positive,
    )


def sampled_product_laws(base, v, cfg, height) -> dict:
    """The clauses of direct_product_report on drawn signed elements of
    height at most height, projected into the image of v, of u - v and into
    the commutant C(v)."""

    structure = base.structure
    comp = base.complement(v)
    sub_c = commutant_substructure(base, v)
    sub_h = image_substructure(base, v)
    sub_k = image_substructure(base, comp)
    eta, kappa = base.j(v), base.j(comp)
    rng = cfg.rng("product")
    dim = structure.carrier.dim

    def signed(sub):
        return sub.project(draw_signed(dim, rng, height))

    def elements():
        return Sample(cfg.spot, lambda: signed(sub_c))

    def fixes(j, x) -> bool:
        return sub_c.is_member(x) and j.apply(x) == x

    def realized(hk) -> bool:
        h, k = hk
        s = h + k
        return sub_c.is_member(s) and eta.apply(s) == h and kappa.apply(s) == k

    def componentwise(g) -> bool:
        pos = structure.is_positive
        return pos(g) == (pos(eta.apply(g)) and pos(kappa.apply(g)))

    laws = [
        sampled_morphism_order(sub_c, sub_h, eta, cfg, height, "eta_"),
        sampled_morphism_order(sub_c, sub_k, kappa, cfg, height, "kappa_"),
        law("eta_fixes_image", Sample(cfg.spot, lambda: signed(sub_h)), lambda h: fixes(eta, h)),
        law("kappa_fixes_image", Sample(cfg.spot, lambda: signed(sub_k)), lambda k: fixes(kappa, k)),
        law(
            "pairing_recovers_element",
            elements(),
            lambda g: eta.apply(g) + kappa.apply(g) == g,
            sub_c.is_member,
        ),
        law("pairing_surjective", Sample(cfg.spot, lambda: (signed(sub_h), signed(sub_k))), realized),
        law("order_componentwise", elements(), componentwise, sub_c.is_member),
    ]
    return {c.name: c for c in laws}


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


def sampled_direct(structure, endo, cfg):
    """is_direct on a matrix structure by a refutation search: basis-aligned
    probes, then drawn effects, each projected into the structure."""

    dim = structure.carrier.dim
    rng = cfg.rng("direct")
    samples = (matrix_model.draw_effect(dim, rng) for _ in range(cfg.samples))
    return law(
        "direct",
        (structure.project(e) for e in chain(_direct_probes(dim), samples)),
        lambda e: structure.leq(endo.apply(e), e),
        exact=False,
    )


def full_focus_search(model):
    """enumerate_retractions by the search it had before [0, p] stopped at
    full rank: all of [0, p] at every focus p, and every candidate tried.
    Its oracle on finite models."""

    if model.unit.is_zero():
        return (retraction_certificate(model, models.zero_endo(model)),)
    effects = model.interval()
    spanning = [e.coords for e in effects]
    if len(_extend_basis([], spanning, model.dim)) < model.dim:
        raise ValueError("interval does not span the rational carrier")
    certs = []
    for p in effects:
        below = [e.coords for e in effects if model.leq(e, p)]
        fixed = _extend_basis([], below, model.dim)
        basis = _extend_basis(fixed, spanning, model.dim)
        adj, det = linalg.invert(linalg.transpose(basis))
        w = linalg.mat_vec(adj, model.unit.coords)
        target = tuple(det * x for x in p.coords)
        for free in product(below, repeat=model.dim - len(fixed)):
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


def unshared_substructure_report(base, v, kind):
    """substructure_report as it was before a base shared the validations
    of equal substructures: both validation stacks run afresh for every
    (kind, focus).  Its oracle, report for report."""

    sub = (image_substructure if kind == "image" else commutant_substructure)(base, v)
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
    clauses.append(law("restricted_foci_members", rbase.foci, sub.is_member, witness="focus"))
    rep = Report(f"{kind} substructure", clauses)
    rep.extend(models.validate_unital_group(sub))
    rep.extend(validate_compression_base(rbase))
    return sub, rbase, rep


# ---------------------------------------------------------------------------
# the exact kernels as they were before their fast paths, the oracles of
# tests/test_exact_kernels.py


def lcm_combine(a, da: int, b, db: int, k: int = 1):
    """a/da + k * b/db as integer rows over lcm(da, db), scaling both sides
    on every call (linalg.combine without its same-denominator path)."""
    den = lcm(da, db)
    fa, fb = den // da, k * (den // db)
    return tuple(tuple(fa * x + fb * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)), den


def nested_lowest_terms(rows, den: int):
    """linalg.lowest_terms with its gcd taken over a nested generator."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = gcd(den, *(x for row in rows for x in row))
    if den < 0:
        g = -g
    if g == 1:
        return rows, den
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def dividing_is_psd(m) -> bool:
    """linalg.is_psd dividing every Schur complement by its gcd, 1 included."""
    a = [list(row) for row in m]
    while a:
        piv = next((i for i, row in enumerate(a) if row[i]), None)
        if piv is None:
            return not any(map(any, a))
        top = a.pop(piv)
        d = top.pop(piv)
        if d < 0:
            return False
        col = [row.pop(piv) for row in a]
        a = [[d * x - f * y for x, y in zip(row, top)] for row, f in zip(a, col)]
        g = gcd(*(x for row in a for x in row)) or 1
        a = [[x // g for x in row] for row in a]
    return True


def pairwise_devectorize(model, v, den: int = 1):
    """MatrixModel.devectorize writing each vectorized entry at (i, j) and (j, i)."""
    entries = [[0] * model.dim for _ in range(model.dim)]
    for (i, j), x in zip(model.sym_pairs, v):
        entries[i][j] = x
        entries[j][i] = x
    return SymMat(tuple(map(tuple, entries)), den)


def product_cayley_orthogonal(dim: int, rng):
    """matrix_model.cayley_orthogonal as the product (D*I - A) adj / det."""
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    bound = matrix_model.DEFAULT_BOUND
    gens = [(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in pairs]
    den = lcm(*(q for _, q in gens))
    plus = [[den * (i == j) for j in range(dim)] for i in range(dim)]
    for (i, j), (p, q) in zip(pairs, gens):
        plus[i][j] = p * (den // q)
        plus[j][i] = -plus[i][j]
    adj, det = linalg.invert(plus)
    return linalg.lowest_terms(linalg.mat_mul(linalg.transpose(plus), adj), det)


def checked_compose(a, b):
    """compose(a, b) through the shape-checking Endomorphism constructor."""
    return Endomorphism(a.carrier, linalg.mat_mul(a.matrix, b.matrix), a.den * b.den)


# ---------------------------------------------------------------------------
# matrix maps on their vectorized matrices, as they were before frames: the
# oracles of tests/test_conjugator_maps.py (compose's is checked_compose)


def vectorized_apply(endo, g):
    """Endomorphism.apply as the vectorized matrix times the vectorized element."""
    carrier = endo.carrier
    v, den = carrier.vectorize(g)
    return carrier.devectorize(linalg.mat_vec(endo.matrix, v), endo.den * den)


def vectorized_equal(structure, a, b):
    """endo_equal as the equality of the vectorized matrices, each map read
    after the substructure's projector (checked_compose) on a substructure."""
    projector = getattr(structure, "projector", None)
    if projector is not None:
        a, b = checked_compose(a, projector), checked_compose(b, projector)
    return a.matrix == b.matrix and a.den == b.den

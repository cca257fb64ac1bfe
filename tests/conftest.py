import pytest

from itertools import product
from pathlib import Path

from hypothesis import assume, strategies as st

from compbase import CheckConfig, compose, conjugate, endo_equal, load_model, matrix_model
from compbase.compatibility import _absorbs
from compbase.reporting import Sample, law

REPO = Path(__file__).resolve().parent.parent
MODELS_DIR = REPO / "models"
FIXTURES_DIR = MODELS_DIR / "fixtures"

BUNDLED = ("m1", "m2", "m3", "m4", "m5")
LATTICE = ("m1", "m2", "m5")
MATRIX = ("m3", "m4")


@pytest.fixture(scope="session")
def fast_cfg():
    """Small sample counts keep the matrix sweeps quick in unit tests."""
    return CheckConfig(height_bound=3, samples=40, seed=0)


@pytest.fixture(scope="session")
def bundled():
    """name -> (model, declared base) for every bundled model file."""
    return {name: load_model(MODELS_DIR / f"{name}.json") for name in BUNDLED}


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


# ---------------------------------------------------------------------------
# sampled oracles of the matrix path
#
# The package decides these laws on matrix structures exactly, from the
# conjugator of each map (see compression.retraction_certificate,
# is_compression, kernel_complement_check, _matrix_normality_clause,
# compatibility._checked_meet, the theorem sweeps and
# models._validate_matrix).  These are the seeded sweeps those rules
# replaced, kept to check that both routes reach the same verdicts.  Each
# rests on drawn cases, so each reads certified when it finds no witness:
# a universe made by a generator is passed with exact=False, since law()
# reads only a Sample as sampled.


def sampled_retraction_laws(structure, endo, cfg) -> dict:
    """order_preserving and fixes_below_focus of a conjugation, spot checked."""

    rng = cfg.rng("retraction")
    dim = structure.carrier.dim
    p = endo.conjugator
    positives = Sample(cfg.spot, lambda: matrix_model.draw_positive(dim, rng, cfg.height_bound))
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


def sampled_unital_group(structure, cfg) -> dict:
    """The order clauses of a matrix structure's unital-group axioms, spot checked."""

    rng = cfg.rng()
    dim = structure.carrier.dim
    n = cfg.height_bound

    def sample(draw, *args):
        return structure.project(draw(dim, rng, *args))

    def ordered_triple():
        a = sample(matrix_model.draw_signed, n)
        b = a + sample(matrix_model.draw_positive, n)
        return a, b, sample(matrix_model.draw_signed, n)

    def dominated(g) -> bool:
        unit = structure.unit
        return any(structure.is_positive(unit.scale(k) - g) for k in range(4 * n + 1))

    return {
        "order_translation_invariant": law(
            "order_translation_invariant",
            Sample(cfg.spot, ordered_triple),
            lambda abk: structure.leq(abk[0] + abk[2], abk[1] + abk[2]),
        ),
        "order_antisymmetric": law(
            "order_antisymmetric",
            Sample(cfg.spot, lambda: sample(matrix_model.draw_positive, n)),
            lambda g: g.is_zero() or not structure.is_positive(-g),
        ),
        "unit_order_unit": law(
            "unit_order_unit",
            Sample(cfg.spot, lambda: sample(matrix_model.draw_signed, n)),
            dominated,
        ),
    }


def sampled_kernel_complement(structure, j, j_comp, cfg):
    """The kernel/fixed-point exchange on kernel-targeted, range-targeted and
    generic positive samples of the structure."""

    dim = structure.carrier.dim
    rng = cfg.rng("kernel_complement")
    zero = structure.zero

    def holds(g) -> bool:
        jg = j.apply(g)
        kg = j_comp.apply(g)
        return (kg == g) == (jg == zero) and (kg == zero) == (jg == g)

    def positives():
        for i in range(cfg.spot):
            raw = matrix_model.draw_positive(dim, rng, cfg.height_bound)
            if i % 3 == 1:
                yield conjugate(j_comp.conjugator, raw)
            elif i % 3 == 2:
                yield conjugate(j.conjugator, raw)
            else:
                yield structure.project(raw)

    return law("kernel_complement", positives(), holds, exact=False)


def sampled_theorem_laws(base, cfg) -> dict:
    """The theorem sweeps that quantify over effects or elements, spot
    checked at every declared focus of a matrix base."""

    structure = base.structure
    unit = structure.unit
    dim = structure.carrier.dim
    n = cfg.height_bound
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
        return sampled_kernel_complement(structure, base.j(p), comp, cfg).ok

    def split(p, draw):
        a = draw(dim, commutant_rng, n)
        return conjugate(p, a) + conjugate(unit - p, draw(dim, commutant_rng, n))

    def elements(p):
        for i in range(cfg.spot):
            if i % 3 == 0:
                g = matrix_model.draw_signed(dim, commutant_rng, n)
            elif i % 3 == 1:
                g = split(p, matrix_model.draw_signed)
            else:
                g = split(p, matrix_model.draw_positive)
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

    clause = law(
        "composition_law",
        product(base.foci, repeat=3),
        holds,
        lambda pqr: structure.leq(pqr[0] + pqr[1] + pqr[2], structure.unit),
        witness=("p", "q", "r"),
        note="all focus triples with p + q + r below the unit",
    )
    clause.items = rows if len(rows) <= 24 else None
    return clause

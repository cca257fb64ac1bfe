"""Concrete unital ordered abelian groups and their endomorphisms.

Two carriers are supported. A lattice-cone model is Z^dim ordered by an
integer constraint cone (g >= 0 iff every cone row pairs nonnegatively with
g); its unit interval and height boxes are enumerated exactly inside a
coordinate box bounded by inverting independent cone rows and tightened by
interval propagation over the defining inequalities. A matrix model is the
space of symmetric rational d x d matrices ordered by positive
semidefiniteness, with the identity as order unit; its interval is
infinite, so its unital-group laws are decided from the form of the order
and of the structure's projection, and nothing is sampled.

Endomorphisms are stored uniformly as integer matrices over one
denominator, acting on a vectorization of the carrier (integer entries
over the element's denominator), so composition is matrix product and map
equality is literal matrix equality, on both kinds (on a substructure,
after composing with its projector; see endo_equal).

The lattice path runs on the int tuples a Vec holds. Coordinates are
checked where they enter (model files, the CLI, library calls to Vec);
interval and box points, map images and the order test are computed on
tuples and never re-checked: the cone test is one pass over the stored
cone rows, leq tests the coordinate difference, and _interval_sums decides
every member of a height box in one sweep ordered by weight.

The matrix order test MatrixModel.leq, and with it the order of every
matrix substructure, is memoized on the exact (a, b) pair by a
functools.lru_cache of matrix_model.CACHE_SIZE entries: the same declared
foci are compared thousands of times per report.  Its body is is_psd of
b - a, so the memo changes no answer.

A lattice map keeps an image table (Endomorphism._images): each product
of a distinct map and an element is computed once, and the sweeps that
meet the same element again read the stored image.  Equal maps that are
distinct objects share one table through a weak registry (_TABLES), so a
table lives exactly as long as some map that uses it.  A matrix map keeps
none, since its inputs are sampled and a table would only grow with the
budget.  A lattice model keeps its interval and height boxes (_boxes),
which are freed with it.

Both model classes and Endomorphism are frozen values (value.Value):
equal by fields and hashed as the tuple of them, which lets models and
matrices key the caches here; the image table and the boxes are not
fields.  A finite substructure's unit is tested as an order unit row by
row against its projector before the bounded sweep (see
_directedness_bounded), and its universes are enumerated from a basis of
its projector's range (range_band).
"""

from __future__ import annotations

import itertools
import weakref
from functools import lru_cache
from math import gcd
from operator import mul, sub

from . import linalg, matrix_model
from .config import CheckConfig
from .elements import SymMat, Vec, _trusted_vec, conjugate, fraction_rows
from .reporting import FAIL, PASS, Clause, Report, derived, law
from .value import Value


class NotEnumerableError(ValueError):
    """Raised when an exact enumeration is requested of an infinite set."""


class UnboundedIntervalError(NotEnumerableError):
    pass


_POINT_CAP = 2_000_000
_PROPAGATION_ROUNDS = 64


def _dot(row, coords) -> int:
    return sum(map(mul, row, coords))


def _in_cone(rows, coords) -> bool:
    """row . coords >= 0 for every row, in one pass that stops at the first failure."""
    for row in rows:
        if sum(map(mul, row, coords)) < 0:
            return False
    return True


def integer_points(rows, rhs, dim: int) -> list[tuple[int, ...]]:
    """All integer points x with row_i . x >= rhs_i, in lexicographic order.

    Box bounds per coordinate are seeded from two-sided constraints (see
    _seed_box) and tightened by exact interval propagation over the
    inequalities. If some coordinate never acquires both bounds the
    solution set is (or cannot be shown to be) infinite and
    UnboundedIntervalError is raised.
    """
    for r, b in zip(rows, rhs):
        if not any(r) and b > 0:
            return []
    cons = [(tuple(r), b) for r, b in zip(rows, rhs) if any(r)]
    lo, hi = _seed_box(cons, dim)
    if any(l is not None and h is not None and l > h for l, h in zip(lo, hi)):
        return []
    for _ in range(_PROPAGATION_ROUNDS):
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
        if total > _POINT_CAP:
            raise UnboundedIntervalError("interval too large to enumerate")
    out = []
    for pt in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if all(_dot(a, pt) >= b for a, b in cons):
            out.append(pt)
    return out


def _seed_box(cons, dim: int) -> tuple[list, list]:
    """Coordinate bounds implied by dim independent bands lo <= a . x <= hi.

    A band is a row a constrained from both sides (a . x >= lo and
    -a . x >= -hi).  For a matrix A of dim independent band rows, x is
    A^-1 y with each y_i in [lo_i, hi_i], so x_j lies between the sums of
    the smaller and of the larger products (A^-1)_ji * y_i, taken as
    adj(A)_ji * y_i over det(A) made positive.  Propagation
    alone never starts when every row has two or more nonzero entries;
    these bounds give it a start.  Fewer than dim independent bands (a cone
    that is not pointed) leave every bound open.
    """
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


class LatticeConeModel(Value):
    """Z^dim ordered by the cone of its rows, with an order unit.

    The interval and the height boxes are enumerated once per model and
    kept in _boxes, which is no field: they are freed with the model.
    """

    __slots__ = ("dim", "cone_rows", "unit", "_boxes")

    kind = "lattice_cone"
    finite = True
    is_trivial = False

    def __init__(self, dim: int, cone_rows: tuple[tuple[int, ...], ...], unit: Vec) -> None:
        if dim < 1:
            raise ValueError("dim must be at least 1")
        for row in cone_rows:
            if len(row) != dim or not all(isinstance(x, int) for x in row):
                raise ValueError(f"cone row {row!r} does not match dim {dim}")
        if unit.dim != dim:
            raise ValueError(f"unit has dim {unit.dim}, model has dim {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "cone_rows", cone_rows)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "_boxes", {})

    @property
    def carrier(self) -> "LatticeConeModel":
        return self

    @property
    def zero(self) -> Vec:
        return Vec.zero(self.dim)

    def project(self, g: Vec) -> Vec:
        return g

    def is_member(self, g) -> bool:
        return isinstance(g, Vec) and g.dim == self.dim

    def is_positive(self, g: Vec) -> bool:
        return _in_cone(self.cone_rows, g.coords)

    def leq(self, a: Vec, b: Vec) -> bool:
        """a <= b, tested on the coordinates of b - a without building a Vec."""
        if len(a.coords) != len(b.coords):
            raise ValueError(f"cannot compare {a!r} with {b!r}: dimensions differ")
        return _in_cone(self.cone_rows, tuple(map(sub, b.coords, a.coords)))

    def interval(self) -> tuple[Vec, ...]:
        return self._box(0, 1)

    def positive_universe(self, n: int) -> tuple[Vec, ...]:
        return self._box(0, n)

    def signed_universe(self, n: int) -> tuple[Vec, ...]:
        return self._box(-n, n)

    def _box(self, lo: int, hi: int) -> tuple[Vec, ...]:
        box = self._boxes.get((lo, hi))
        if box is None:
            box = self._boxes[lo, hi] = _lattice_interval(self, lo, hi)
        return box

    # endomorphisms act on the coordinates themselves
    @property
    def vec_dim(self) -> int:
        return self.dim

    def vectorize(self, g: Vec) -> tuple[tuple[int, ...], int]:
        return g.coords, 1

    def devectorize(self, v, den: int = 1) -> Vec:
        if den != 1:
            if any(x % den for x in v):
                raise ValueError("endomorphism does not preserve the integer lattice")
            v = tuple(x // den for x in v)
        return _trusted_vec(v)


def _lattice_interval(model: LatticeConeModel, lo: int, hi: int) -> tuple[Vec, ...]:
    """Points x with lo * (row . u) <= row . x <= hi * (row . u) for every cone row.

    (0, 1) is the unit interval, (0, n) the positive height-n box and
    (-n, n) the signed one.
    """
    rows, rhs = [], []
    for row in model.cone_rows:
        at_unit = _dot(row, model.unit.coords)
        rows.append(row)
        rhs.append(lo * at_unit)
        rows.append(tuple(-a for a in row))
        rhs.append(-hi * at_unit)
    return tuple(map(_trusted_vec, integer_points(rows, rhs, model.dim)))


def lattice_basis(vectors) -> list[tuple[int, ...]]:
    """A basis of the group of integer combinations of `vectors`, in echelon form.

    Integer row reduction: column by column, Euclid's algorithm on the
    rows with a nonzero entry there leaves one pivot row and sends the
    others to rows with a zero entry.  Each step is invertible over Z, so
    the rows keep generating the same group, and the pivot rows, in
    echelon form, are independent.  (An independent subset of the vectors
    spans the same rational space but may generate a smaller group.)
    """
    rows = [tuple(v) for v in vectors if any(v)]
    basis: list = []
    col = 0
    while rows:
        pivots = [r for r in rows if r[col]]
        rest = [r for r in rows if not r[col]]
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            top = pivots[0]
            keep = [top]
            for r in pivots[1:]:
                q = r[col] // top[col]
                r = tuple(a - q * b for a, b in zip(r, top))
                (keep if r[col] else rest).append(r)
            pivots = keep
        basis += pivots
        rows = [r for r in rest if any(r)]
        col += 1
    return basis


def range_band(carrier: LatticeConeModel, cols, units, lo: int, hi: int) -> list[Vec]:
    """The points g of the group the integer columns `cols` generate with
    lo*w <= g <= hi*w for every w in `units`, in lexicographic order.

    With B a basis of that group (lattice_basis), g = B y for exactly one
    integer y, and lo*w <= g <= hi*w reads lo (r.w) <= (r B) y <= hi (r.w)
    for each cone row r: integer_points enumerates the y in rank(B)
    coordinates, and B y maps them back.  Raises UnboundedIntervalError
    where integer_points does.
    """
    basis = lattice_basis(cols)
    floor: dict = {}
    for r in carrier.cone_rows:
        a = tuple(_dot(r, b) for b in basis)
        for w in units:
            at_w = _dot(r, w.coords)
            for row, b in ((a, lo * at_w), (tuple(-x for x in a), -hi * at_w)):
                floor[row] = max(b, floor.get(row, b))
    if not basis:  # the zero group: only g = 0, where every row reads 0
        return [carrier.zero] if all(b <= 0 for b in floor.values()) else []
    ys = integer_points(list(floor), list(floor.values()), len(basis))
    coords = tuple(zip(*basis))
    return list(map(_trusted_vec, sorted(tuple(_dot(c, y) for c in coords) for y in ys)))


class MatrixModel(Value):
    __slots__ = ("dim",)

    kind = "matrix"
    finite = False
    is_trivial = False
    premises = ()  # its projection is the identity (see _validate_matrix)

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("dim must be at least 1")
        object.__setattr__(self, "dim", dim)

    @property
    def carrier(self) -> "MatrixModel":
        return self

    @property
    def unit(self) -> SymMat:
        return _sym_identity(self.dim)

    @property
    def zero(self) -> SymMat:
        return SymMat.zero(self.dim)

    def project(self, g: SymMat) -> SymMat:
        return g

    def is_member(self, g) -> bool:
        return isinstance(g, SymMat) and g.dim == self.dim

    def is_positive(self, g: SymMat) -> bool:
        return linalg.is_psd(g.num)

    def leq(self, a: SymMat, b: SymMat) -> bool:
        return _matrix_leq(a, b)

    def interval(self):
        raise NotEnumerableError(
            "unit interval of the matrix model is not enumerable; use the samplers"
        )

    def positive_universe(self, n: int):
        raise NotEnumerableError("matrix model universes are sampled, not enumerated")

    def signed_universe(self, n: int):
        raise NotEnumerableError("matrix model universes are sampled, not enumerated")

    @property
    def sym_pairs(self) -> tuple[tuple[int, int], ...]:
        return _sym_pairs(self.dim)

    @property
    def vec_dim(self) -> int:
        return self.dim * (self.dim + 1) // 2

    def vectorize(self, g: SymMat) -> tuple[tuple[int, ...], int]:
        return tuple(g.num[i][j] for i, j in self.sym_pairs), g.den

    def devectorize(self, v, den: int = 1) -> SymMat:
        entries = [[0] * self.dim for _ in range(self.dim)]
        for (i, j), x in zip(self.sym_pairs, v):
            entries[i][j] = x
            entries[j][i] = x
        return SymMat(tuple(map(tuple, entries)), den)

    def basis(self) -> tuple[SymMat, ...]:
        return _sym_basis(self.dim)


@lru_cache(maxsize=matrix_model.CACHE_SIZE)
def _matrix_leq(a: SymMat, b: SymMat) -> bool:
    """a <= b in the positive-semidefinite order, keyed by the exact pair."""
    return linalg.is_psd((b - a).num)


@lru_cache(maxsize=None)
def _sym_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(dim) for j in range(i, dim))


@lru_cache(maxsize=None)
def _sym_identity(dim: int) -> SymMat:
    return SymMat.identity(dim)


@lru_cache(maxsize=None)
def _sym_basis(dim: int) -> tuple[SymMat, ...]:
    return tuple(
        SymMat(tuple(tuple(int({r, c} == {i, j}) for c in range(dim)) for r in range(dim)))
        for i, j in _sym_pairs(dim)
    )


class _Images(dict):
    """An image table; weakly referenceable, so _TABLES can hold it."""

    __slots__ = ("__weakref__",)


# (carrier, matrix, den) -> the image table every live equal lattice map shares
_TABLES: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


class Endomorphism(Value):
    """Group endomorphism of a carrier, as the matrix `matrix / den` on its vectorization.

    Stored in lowest terms with den > 0, as SymMat is; lattice maps have
    den 1.  For matrix carriers, an endomorphism arising as g -> p g p
    remembers its conjugator; the analytic facts about such maps (order
    preservation, the compression property) hinge on that form.

    On a lattice carrier (carrier.finite) the map keeps an image table,
    _images, from the coordinates of each element it has mapped to the
    image: apply computes each product once per distinct map and element,
    and the sweeps that ask again (absorption, the product split, the
    substructure bands, membership P g == g) read the stored image.  Equal
    maps share one table through the weak registry _TABLES, keyed by
    (carrier, matrix, den): the table lives while some map that uses it
    does, and a map built after every equal map is gone starts empty.  Only
    a successful image is stored, so a map that leaves the lattice raises
    ValueError on every call.  A matrix map keeps no table: its inputs are
    sampled, so a table would only grow with the budget.  The table is not
    a field, so equality, hashing, repr and pickling ignore it.
    """

    __slots__ = ("carrier", "matrix", "den", "conjugator", "_images")

    def __init__(
        self,
        carrier: "LatticeConeModel | MatrixModel",
        matrix: tuple[tuple[int, ...], ...],
        den: int = 1,
        conjugator: SymMat | None = None,
    ) -> None:
        n = carrier.vec_dim
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError(f"endomorphism matrix must be {n}x{n} for this carrier")
        if den != 1:
            matrix, den = linalg.lowest_terms(matrix, den)
        images = None
        if carrier.finite:
            key = (carrier, matrix, den)
            images = _TABLES.get(key)
            if images is None:
                images = _TABLES[key] = _Images()
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "conjugator", conjugator)
        object.__setattr__(self, "_images", images)

    def apply(self, g):
        images = self._images
        if images is None:
            v, den = self.carrier.vectorize(g)
            return self.carrier.devectorize(linalg.mat_vec(self.matrix, v), self.den * den)
        # a lattice element vectorizes as its coordinates over 1
        image = images.get(g.coords)
        if image is None:
            image = self.carrier.devectorize(linalg.mat_vec(self.matrix, g.coords), self.den)
            images[g.coords] = image
        return image

    def jsonable(self):
        out = {"matrix": fraction_rows(self.matrix, self.den)}
        if self.conjugator is not None:
            out["conjugator"] = self.conjugator
        return out


def endo_from_int_matrix(model: LatticeConeModel, rows) -> Endomorphism:
    for row in rows:
        if len(row) != model.dim or not all(isinstance(x, int) for x in row):
            raise ValueError(f"endomorphism row {row!r} does not match dim {model.dim}")
    return Endomorphism(model, tuple(map(tuple, rows)))


def identity_endo(carrier) -> Endomorphism:
    conj = carrier.unit if isinstance(carrier, MatrixModel) else None
    return Endomorphism(carrier, linalg.identity(carrier.vec_dim), conjugator=conj)


def zero_endo(carrier) -> Endomorphism:
    conj = carrier.zero if isinstance(carrier, MatrixModel) else None
    n = carrier.vec_dim
    return Endomorphism(carrier, linalg.zeros(n, n), conjugator=conj)


@lru_cache(maxsize=4096)
def conjugation_endo(carrier: MatrixModel, p: SymMat) -> Endomorphism:
    """The map g -> p g p: column k is P B_k P vectorized, over d^2 for p = P / d."""
    cols = []
    for b in carrier.basis():
        pbp = linalg.mat_mul(linalg.mat_mul(p.num, b.num), p.num)
        cols.append([pbp[i][j] for i, j in carrier.sym_pairs])
    return Endomorphism(carrier, linalg.transpose(cols), p.den * p.den, p)


def compose(a: Endomorphism, b: Endomorphism) -> Endomorphism:
    """a after b (apply b first)."""
    if a.carrier != b.carrier:
        raise ValueError("cannot compose endomorphisms of different carriers")
    return Endomorphism(a.carrier, linalg.mat_mul(a.matrix, b.matrix), a.den * b.den)


def endo_equal(structure, a: Endomorphism, b: Endomorphism) -> bool:
    """Map equality on the group of `structure`, one rule for both kinds.

    Maps are matrices in lowest terms, so two maps agree on a model exactly
    when their matrices are equal.  A substructure is the range of its
    idempotent projector P, and a = b there exactly when aP = bP.  This
    agrees with comparing the maps on the unit interval whenever the
    interval spans the (sub)group: on a model that passes
    validate_unital_group (interval_generates_group), and on the image or
    commutant of a base of retractions, whose P maps the parent's interval
    into the substructure's, onto a set that spans the substructure.
    """
    return map_key(structure, a) == map_key(structure, b)


def map_key(structure, a: Endomorphism) -> tuple:
    """The matrix and denominator of a read as a map of `structure`: of a
    itself on a model, of aP on a substructure with projector P, which the
    substructure composes once per map and keeps."""
    restrict = getattr(structure, "restrict", None)
    if restrict is not None:
        a = restrict(a)
    return a.matrix, a.den


# ---------------------------------------------------------------------------
# unital group validation


def validate_unital_group(structure, cfg: CheckConfig | None = None) -> Report:
    """Check the unital-group axioms for a model or substructure.

    Finite structures are checked exhaustively on bounded universes (the
    report records the height bound).  On matrix structures every axiom is
    decided from the form of the operator order and of the structure's
    projection (see _validate_matrix).
    """
    if structure.finite:
        return _validate_finite(structure, cfg or CheckConfig())
    return _validate_matrix(structure)


def _validate_finite(structure, cfg: CheckConfig) -> Report:
    rep = Report(title="unital group axioms")
    top_level = isinstance(structure, LatticeConeModel)
    n = cfg.height_bound

    rep.add(
        Clause(
            "order_translation_invariant",
            PASS,
            note="leq tests b - a against the cone, and (b + k) - (a + k) is b - a",
        )
    )
    # a substructure is ordered by its carrier's cone, restricted
    carrier = structure.carrier
    pointed = law(
        "order_antisymmetric" if top_level else "cone_pointed",
        (linalg.rank(carrier.cone_rows),),
        lambda rank: rank == carrier.dim,
        witness=lambda rank: {"cone_rank": rank, "dim": carrier.dim},
        note="cone is pointed iff the constraint rows have full rank",
    )
    note = "the restriction of a pointed cone's order is antisymmetric"
    rep.add(pointed if top_level else derived("order_antisymmetric", (pointed,), note))

    rep.add(_unit_clause(structure))

    try:
        interval = structure.interval()
    except NotEnumerableError as exc:
        rep.add(Clause("interval_finite", FAIL, witness={"error": str(exc)}))
        return rep
    rep.add(
        Clause(
            "interval_finite",
            PASS,
            checked=len(interval),
            note=f"|E| = {len(interval)}",
        )
    )

    if top_level:
        _directedness_exact(structure, interval, rep)
    else:
        _directedness_bounded(structure, n, rep)

    gen_bound = n if top_level else 2 * n
    box = structure.positive_universe(gen_bound)
    reach = _interval_sums(structure, box)
    rep.add(
        law(
            "interval_generates_positives",
            box,
            lambda g: g.coords in reach,
            witness="positive",
            note=f"every positive below {gen_bound}*unit is a sum of interval elements",
        )
    )
    return rep


def _unit_clause(structure) -> Clause:
    return law(
        "unit_positive_nonzero",
        (structure.unit,),
        lambda u: structure.is_positive(u) and (not u.is_zero() or structure.is_trivial),
        witness="unit",
    )


def _directedness_exact(model: LatticeConeModel, interval, rep: Report) -> None:
    """Directedness for a top-level lattice model, decided exactly.

    The group is directed with order unit u iff the unit interval generates
    Z^dim as a group (checked through the gcd of dim x dim minors of the
    matrix of interval elements) and every nonzero cone row pairs strictly
    positively with u (so a multiple of u eventually dominates any element).
    """
    nonzero = [e.coords for e in interval if not e.is_zero()]
    index = 0
    if len(nonzero) >= model.dim:
        for combo in itertools.combinations(nonzero, model.dim):
            index = gcd(index, abs(linalg.int_det(combo)))
            if index == 1:
                break
    rep.add(
        law(
            "interval_generates_group",
            (index,),
            lambda i: i == 1,
            witness="lattice_index",
            checked=len(nonzero),
            note="interval elements must span the full integer lattice",
        )
    )
    rep.add(
        law(
            "unit_order_unit",
            model.cone_rows,
            lambda row: not any(row) or _dot(row, model.unit.coords) > 0,
            witness=lambda row: {"cone_row": list(row)},
            note="each nonzero cone row must pair strictly positively with the unit",
        )
    )


def _directedness_bounded(structure, n: int, rep: Report) -> None:
    """Directedness of a finite substructure: its unit must be an order unit.

    The substructure H is the group of lattice points that its projector P
    fixes, ordered by the model's cone rows r (g >= 0 iff r . g >= 0 for
    every r).  u is an order unit of H when every g in H has a multiple
    m*u with m*u - g >= 0, i.e. m (r . u) >= r . g for every row r.  A row
    with r . u > 0 allows this for m large enough.  A row with r . u <= 0
    forces r . g <= 0 for every g in H, and so, as H contains -g with g,
    r . g = 0: the row must vanish on H.  For an idempotent P, H is the
    set of lattice points of the rational subspace range(P) and spans it,
    so r vanishes on H exactly when r . P = 0.  Hence u is an order unit
    of H iff every cone row has r . u > 0 or r . P = 0; a row that fails
    is the witness.  (A non-idempotent P fails projector_idempotent in the
    same substructure report.)

    When every row passes, the clause sweeps the signed height-n box as
    it always has: n*u must be a member that dominates each element.  That
    sweep alone cannot see a row with r . u = 0, since the box is cut out
    by u itself.
    """
    unit = structure.unit.coords
    cols = tuple(zip(*structure.projector.matrix))
    rows = law(
        "unit_order_unit",
        structure.carrier.cone_rows,
        lambda r: _dot(r, unit) > 0 or not any(_dot(r, c) for c in cols),
        witness="cone_row",
        note="a cone row vanishes at the unit but not on the subgroup",
    )
    if not rows.ok:
        rep.add(rows)
        return
    top = structure.unit.scale(n)
    # each g of the box is a member of a subgroup, so top - g is when top is
    top_member = structure.is_member(top)
    rep.add(
        law(
            "unit_order_unit",
            structure.signed_universe(n),
            lambda g: top_member and structure.is_positive(top - g),
            witness="element",
            note=f"checked on the signed height-{n} box",
        )
    )


def _interval_sums(structure, box) -> set:
    """The coordinates of the members of `box` that are sums of interval elements.

    `box` is the positive box {g : 0 <= g <= n*unit} of the structure, and
    the sums are those of nonzero interval elements e, so each partial sum
    is positive and below its total.  A positive g is such a sum iff g = 0,
    or g - e is such a sum for some nonzero e in the interval.

    One sweep over the box decides every g.  If g - e is a sum it is
    positive, it lies below g and hence below n*unit, and it is in the
    (sub)group, so it is in the box.  It also comes earlier once the box is
    sorted by w . g, where w is the sum of the cone rows: w . e is the sum of
    the row values row . e >= 0, and on a pointed cone (rows of full rank,
    as every cone with a finite nonempty interval has) they are not all 0
    for e != 0, so
    w . (g - e) < w . g.  The sums below g are therefore all decided by the
    time g is reached.
    """
    effects = [e.coords for e in structure.interval() if not e.is_zero()]
    weight = [sum(col) for col in zip(*structure.carrier.cone_rows)]
    reach: set = set()
    for g in sorted((g.coords for g in box), key=lambda x: _dot(weight, x)):
        if not any(g) or any(tuple(map(sub, g, e)) in reach for e in effects):
            reach.add(g)
    return reach


def _members_in_corner(structure, name: str, note: str = "") -> Clause:
    """Is every member g of a matrix structure v g v, for its unit v?

    Decided on the projected basis, which spans the members.
    """
    unit = structure.unit
    return law(
        name,
        tuple(structure.project(b) for b in structure.carrier.basis()),
        lambda g: conjugate(unit, g) == g,
        witness="element",
        note=note,
    )


def _order_unit_clause(structure) -> Clause:
    """unit_order_unit: the unit v is a projection and every member g is
    v g v (on the projected basis), so g <= c*I gives g = v g v <= c*v."""

    unit = structure.unit
    clause = _members_in_corner(
        structure, "unit_order_unit", "every member g is v g v, and g <= c*I gives v g v <= c*v"
    )
    if clause.ok and not matrix_model.is_projection(unit):
        clause.status, clause.witness = FAIL, {"unit": unit, "reason": "not a projection"}
    return clause


def _validate_matrix(structure) -> Report:
    """Unital-group axioms of a matrix structure, the model or a substructure.

    All decided exactly.  leq(a, b) is is_psd(b - a): translation invariant
    by construction, and antisymmetric, as g >= 0 and -g >= 0 put every
    eigenvalue of g at 0.  interval_sampled: the projection maps [0, I] into
    [0, v], as the identity, or as the congruence of structure.premises (see
    compatibility.image_substructure).  interval_generates_positives, from
    unit_order_unit: a positive member g = v g v <= c*v for an integer
    c >= tr g, so g = c * (g/c) with g/c a member in [0, v].
    """

    order_unit = _order_unit_clause(structure)
    clauses = [
        Clause("order_translation_invariant", PASS, note="(b + k) - (a + k) is b - a exactly"),
        Clause("order_antisymmetric", PASS, note="psd and negative-psd puts every eigenvalue at 0"),
        _unit_clause(structure),
        derived("interval_sampled", structure.premises, "projection maps [0, I] into [0, unit]"),
        order_unit,
        derived("interval_generates_positives", (order_unit,), "g >= 0 is c copies of g/c <= unit"),
    ]
    return Report("unital group axioms", clauses)

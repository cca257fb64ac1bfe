"""Concrete unital ordered abelian groups and their endomorphisms.

Two carriers are supported. A lattice-cone model is Z^dim ordered by an
integer constraint cone (g >= 0 iff every cone row pairs nonnegatively with
g); its unit interval and positive boxes are enumerated exactly by one band
solver (integer_points) inside a coordinate box bounded by inverting
independent cone rows and tightened by interval propagation over both
sides of every band.  On a cone whose rows have rank below dim (not
pointed, the test of order_antisymmetric) the interval is empty or
infinite, so validation ends there rather than enumerate.  A matrix
model is the space of symmetric rational d x d matrices ordered by
positive semidefiniteness, with the identity as order unit; its interval
is infinite, so its unital-group laws are decided from the form of the
order and of the structure's projection, and nothing is sampled.

Endomorphisms are integer matrices over one denominator, acting on a
vectorization of the carrier (integer entries over the element's
denominator), so composition is matrix product and map equality is
literal matrix equality, on both kinds (on a substructure, after
composing with its projector; see endo_equal).  A matrix map the program
builds as a conjugation g -> a g a^T keeps its n x n frame a instead:
compose multiplies frames, apply computes a g a^T, equality compares
canonical frames, and the vectorized matrix, n(n+1)/2 square, is built
only where it is read (see Endomorphism).  The Endomorphism constructor
checks the shape of its matrix; the maps the program computes from
checked ones (compose, conjugation_endo) skip that check through
_trusted_endo and _framed_endo, and the first still reduces the matrix
and hands a lattice map its image table.  MatrixModel.devectorize reads
each entry through an index table kept per dimension (_sym_index).

A lattice law over all of G whose premise and conclusion are cone or
subspace conditions is decided on the generators of its cones
(cone_generators, cone_cases), and interval_generates_positives on the
positive box of the height the rays bound (_generation_height).

The lattice path runs on the int tuples a Vec holds. Coordinates are
checked where they enter (model files, the CLI, library calls to Vec);
interval and box points, map images and the order test are computed on
tuples and never re-checked: the cone test is one pass over the stored
cone rows, leq tests the coordinate difference, and _interval_sums decides
every member of a positive box in one sweep ordered by weight (on a box
of height 1, the interval, each member is its own sum and nothing is
swept).

Both order tests are memoized, and each body is the exact test, so no
memo changes an answer: the same declared foci and effects are compared
thousands of times per report.  MatrixModel.leq, and with it the order
of every matrix substructure, is memoized on the exact (a, b) pair by a
functools.lru_cache of ORDER_CAP entries; its body is is_psd of the
integer rows of b - a over the common denominator (linalg.combine), which
are b - a scaled by a positive number and so have its signs, with no
SymMat built or reduced.  MatrixModel.is_positive(g) asks that memo
whether 0 <= g, and matrix_model.is_projection is memoized on the exact
matrix alike.
LatticeConeModel.leq, and with it the order of every lattice
substructure (whose leq defers to its carrier's), keeps its answers on
the model (_order, keyed by the coordinates of a and b, at most
ORDER_CAP entries and cleared when full); its body is the cone test of
b - a.  The finite sweeps with an order premise e <= x run over the
down-set [0, x] (down_set), kept per x on the structure (_below) in
interval order, so they meet the cases the premise admits in the order
of the full sweep, and with them the same counts and witnesses.

A lattice model keeps its interval and positive boxes (_boxes), the
generators of its cones (_cones), and the image tables of its maps
(_tables): a lattice map reads and fills the table of its (matrix, den)
on its carrier, so each product of a distinct map and an element is
computed once, and the checks that meet the same element again
(Endomorphism lists them) read the stored image.  All are freed with the
model, as its order memo and down-sets are.  A matrix map keeps no table,
since its inputs are sampled and a table would only grow with the budget.

Both model classes and Endomorphism are frozen values (value.Value):
equal by fields and hashed as the tuple of them, which lets models and
matrices key the caches here; the image tables and the boxes are not
fields.  One rule lists the boxes of a model and of a substructure
(positive_box): range_band on a Z-basis of the members (member_lattice)
between 0 and n*w for each unit w up to the model.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import mul, sub

from . import linalg, matrix_model
from .elements import SymMat, Vec, _trusted_vec, conjugate
from .reporting import FAIL, PASS, Clause, Report, derived, law, ratio_rows
from .value import Value


class NotEnumerableError(ValueError):
    """Raised when an exact enumeration is requested of an infinite set."""


class UnboundedIntervalError(NotEnumerableError):
    pass


_POINT_CAP = 2_000_000
_PROPAGATION_ROUNDS = 64
# entries kept by a lattice model's order memo (LatticeConeModel._order),
# which is cleared when full, and by the matrix order memo _matrix_leq.  A
# report on a bundled or benchmark lattice model asks at most 692 distinct
# pairs; Z^3 with unit (4,4,4) asks 16,340, and its four clears cost 1,714
# more cone tests than a memo without a cap.  report m4 --samples 8 asks 402.
ORDER_CAP = 4096


def _dot(row, coords) -> int:
    return sum(map(mul, row, coords))


def _in_cone(rows, coords) -> bool:
    """row . coords >= 0 for every row, in one pass that stops at the first failure."""
    for row in rows:
        if sum(map(mul, row, coords)) < 0:
            return False
    return True


def cone_generators(dim: int, rows, eqs=()) -> tuple[list, list]:
    """A basis of the lineality space and the generators of the extreme rays
    of {x in Q^dim : r . x >= 0 for r in rows, e . x = 0 for e in eqs}, as
    sorted lists of primitive integer vectors.

    The lineality space L is the nullspace of rows and eqs.  The cone is L
    plus its pointed part orthogonal to L, whose rays are the lines where
    eqs, L and some tight rows have rank dim - 1, with the sign that meets
    every row >= 0.  The tight rows are enumerated as subsets (dim <= 4 on
    the models here, so the double description method of Motzkin et al.
    1953 and Fukuda and Prodon 1996 is not needed).
    """
    rows = sorted({tuple(r) for r in rows if any(r)})
    eqs = [tuple(e) for e in eqs]
    lineality = linalg.nullspace(rows + eqs, dim)
    fixed = eqs + lineality
    free = dim - 1 - linalg.rank(fixed)
    rays = set()
    for tight in itertools.combinations(rows, free) if free >= 0 else ():
        line = linalg.nullspace(list(tight) + fixed, dim)
        if len(line) == 1:
            rays.update(x for x in (line[0], tuple(-c for c in line[0])) if _in_cone(rows, x))
    return sorted(lineality), sorted(rays)


def generators(structure, rows=None, eqs=()) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """cone_generators, as elements, of the members g of a finite structure
    (structure.equalities) with r . g >= 0 for r in rows (the cone rows by
    default: the positive cone) and e . g = 0 for e in eqs.  Kept on the
    structure per (rows, eqs) (_cones), so the cones of one map, C ∩ ker J
    and C ∩ ker(I - J) (fixed_rows), are computed once per map.
    """
    key = rows, eqs
    gens = structure._cones.get(key)
    if gens is None:
        carrier = structure.carrier
        cone = carrier.cone_rows if rows is None else rows
        found = cone_generators(carrier.dim, cone, structure.equalities + eqs)
        gens = structure._cones[key] = tuple(tuple(map(_trusted_vec, vs)) for vs in found)
    return gens


def cone_cases(structure, rows=None, eqs=()) -> tuple[Vec, ...]:
    """The rays of the cone of generators() and its lineality basis with
    both signs.  A law whose premise cuts out the cone and whose conclusion
    is M g >= 0 or M g = 0 holds on the cone exactly when it holds on these,
    and a rational cone has a lattice point on each ray, so the law over
    its members is the law over its real points; a failing generator is a
    member that breaks it.
    """
    lineality, rays = generators(structure, rows, eqs)
    return rays + lineality + tuple(-g for g in lineality)


def fixed_rows(j) -> tuple[tuple[int, ...], ...]:
    """Rows e with e . g = 0 for every row exactly when j fixes g: those of
    den*I - matrix, for j = matrix / den."""
    return tuple(
        tuple(j.den * (i == k) - x for k, x in enumerate(row)) for i, row in enumerate(j.matrix)
    )


def integer_points(bands: dict, dim: int) -> list[tuple[int, ...]]:
    """All integer points y with lo <= a . y <= hi for every band a: (lo, hi),
    in lexicographic order.

    An empty band (lo > hi, or a zero row whose band misses 0) leaves no
    point.  The box starts from the first dim independent rows A: y is
    A^-1 z with each z_i in the band of row i, so y_j lies between the sums
    of the smaller and of the larger products adj(A)_ji * z_i, over det(A)
    made positive.  Exact interval propagation over both sides of every
    band then tightens it.  A box of more than _POINT_CAP points is not
    enumerated: UnboundedIntervalError.

    Rows of rank r below dim have an integer null vector k, so each point
    y lies on the line y + t k: the set is empty or infinite.  The values
    M y of the row matrix M fill the group that M's columns generate; with
    a basis B of it (lattice_basis) they are B w, and the bands read on w
    in r coordinates, a system of full rank, decide which.  An infinite set
    raises UnboundedIntervalError.
    """
    if any(lo > hi or not (any(a) or lo <= 0 <= hi) for a, (lo, hi) in bands.items()):
        return []
    rows = [(a, lo, hi) for a, (lo, hi) in bands.items() if any(a)]
    seed: list = []
    for a, _, _ in rows:
        if linalg.rank(seed + [a]) > len(seed):
            seed.append(a)
            if len(seed) == dim:
                break
    else:
        basis = lattice_basis(zip(*(a for a, _, _ in rows)))
        values = {tuple(b[i] for b in basis): (lo, hi) for i, (_, lo, hi) in enumerate(rows)}
        if basis and not integer_points(values, len(basis)):
            return []
        raise UnboundedIntervalError("unit interval infinite: no finite box bounds")
    adj, det = linalg.invert(seed)
    if det < 0:
        adj, det = tuple(tuple(-c for c in row) for row in adj), -det
    box = []
    for row in adj:
        ends = [sorted((c * bands[a][0], c * bands[a][1])) for c, a in zip(row, seed)]
        box.append([-(-sum(e[0] for e in ends) // det), sum(e[1] for e in ends) // det])
    for _ in range(_PROPAGATION_ROUNDS):
        changed = False
        for a, lo, hi in rows:
            # the ends of c * y_k over the box, and of a . y
            ends = [sorted((c * l, c * h)) for c, (l, h) in zip(a, box)]
            least, most = sum(e[0] for e in ends), sum(e[1] for e in ends)
            for c, (c_lo, c_hi), bound in zip(a, ends, box):
                if c == 0:
                    continue
                # c * y_j lies in [lo - (most - c_hi), hi - (least - c_lo)]
                under, over = lo - most + c_hi, hi - least + c_lo
                if c < 0:
                    under, over = over, under
                tight = [max(bound[0], -(-under // c)), min(bound[1], over // c)]
                if tight != bound:
                    bound[:] = tight
                    changed = True
                    if tight[0] > tight[1]:
                        return []
        if not changed:
            break
    if math.prod(h - l + 1 for l, h in box) > _POINT_CAP:
        raise UnboundedIntervalError("interval too large to enumerate")
    points = itertools.product(*(range(l, h + 1) for l, h in box))
    return [y for y in points if all(lo <= _dot(a, y) <= hi for a, lo, hi in rows)]


class LatticeConeModel(Value):
    """Z^dim ordered by the cone of its rows, with an order unit.

    The interval and the positive boxes are enumerated once per model and
    kept in _boxes; the down-sets of down_set in _below; the generators of
    its cones (generators) in _cones; the image table of each lattice map,
    keyed by its (matrix, den), in _tables (see Endomorphism); the answers
    of leq in _order.  None is a field: all are freed with the model.
    """

    __slots__ = ("dim", "cone_rows", "unit", "_boxes", "_below", "_cones", "_tables", "_order")

    kind = "lattice_cone"
    finite = True
    is_trivial = False
    equalities = ()  # every point of Z^dim is a member

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
        object.__setattr__(self, "_below", {})
        object.__setattr__(self, "_cones", {})
        object.__setattr__(self, "_tables", {})
        object.__setattr__(self, "_order", {})

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
        """a <= b, tested on the coordinates of b - a without building a Vec,
        once per (a, b) while it stays in the memo _order (ORDER_CAP)."""
        key = a.coords, b.coords
        known = self._order.get(key)
        if known is None:
            if len(a.coords) != len(b.coords):
                raise ValueError(f"cannot compare {a!r} with {b!r}: dimensions differ")
            if len(self._order) >= ORDER_CAP:
                self._order.clear()
            b_minus_a = tuple(map(sub, b.coords, a.coords))
            known = self._order[key] = _in_cone(self.cone_rows, b_minus_a)
        return known

    @property
    def bounds(self) -> tuple[Vec, ...]:
        return (self.unit,)

    def interval(self) -> tuple[Vec, ...]:
        return self.positive_universe(1)

    def positive_universe(self, n: int) -> tuple[Vec, ...]:
        return positive_box(self, n)

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
    for each cone row r, one band per row r B (the bands of rows that
    meet the same r B intersected): integer_points enumerates the y in
    rank(B) coordinates, and B y maps them back.  Raises
    UnboundedIntervalError where integer_points does.
    """
    basis = lattice_basis(cols)
    bands: dict = {}
    for r in carrier.cone_rows:
        a = tuple(_dot(r, b) for b in basis)
        for w in units:
            at_w = _dot(r, w.coords)
            band_lo, band_hi = bands.get(a, (lo * at_w, hi * at_w))
            bands[a] = (max(band_lo, lo * at_w), min(band_hi, hi * at_w))
    if not basis:  # the zero group: only g = 0, where every row reads 0
        return [carrier.zero] if all(l <= 0 <= h for l, h in bands.values()) else []
    ys = integer_points(bands, len(basis))
    coords = tuple(zip(*basis))
    return list(map(_trusted_vec, sorted(tuple(_dot(c, y) for c in coords) for y in ys)))


def member_lattice(structure) -> list[tuple[int, ...]]:
    """A Z-basis of the points y with E y = 0, E = structure.equalities
    (on a model, the identity).  Row i, column i of E then the i-th unit
    vector, makes the rows (E y, y); their echelon basis (lattice_basis)
    ends with the rows zero on E's columns, whose last n entries are it."""
    eqs = structure.equalities
    k, n = len(eqs), structure.carrier.dim
    rows = [tuple(e[i] for e in eqs) + tuple(int(i == j) for j in range(n)) for i in range(n)]
    return [r[k:] for r in lattice_basis(rows) if not any(r[:k])]


def positive_box(structure, n: int) -> tuple[Vec, ...]:
    """The members g of a finite structure with 0 <= g <= n*w for every w
    in structure.bounds (the units up to the model), in lexicographic
    order, kept per n on the structure (_boxes)."""

    box = structure._boxes.get(n)
    if box is None:
        points = range_band(structure.carrier, member_lattice(structure), structure.bounds, 0, n)
        box = structure._boxes[n] = tuple(points)
    return box


def down_set(structure, x) -> tuple:
    """[0, x]: the members of a finite structure's interval below x, in
    interval order, kept per x on the structure (_below).  A sweep whose
    premise is e <= x runs over these, meeting the cases that satisfy it
    in the order a sweep of the whole interval would.  A matrix structure
    raises NotEnumerableError, as its interval() does."""

    if not structure.finite:
        raise NotEnumerableError("down-sets of a matrix structure are infinite, not enumerated")
    down = structure._below.get(x)
    if down is None:
        leq = structure.leq
        down = structure._below[x] = tuple(e for e in structure.interval() if leq(e, x))
    return down


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
        return _sym_scalar(self.dim, 1)

    @property
    def zero(self) -> SymMat:
        return _sym_scalar(self.dim, 0)

    def project(self, g: SymMat) -> SymMat:
        return g

    def is_member(self, g) -> bool:
        return isinstance(g, SymMat) and g.dim == self.dim

    def is_positive(self, g: SymMat) -> bool:
        return _matrix_leq(self.zero, g)

    def leq(self, a: SymMat, b: SymMat) -> bool:
        return _matrix_leq(a, b)

    def interval(self):
        raise NotEnumerableError(
            "unit interval of the matrix model is not enumerable; its laws are decided exactly"
        )

    def positive_universe(self, n: int):
        raise NotEnumerableError("matrix model universes are infinite, not enumerated")

    @property
    def sym_pairs(self) -> tuple[tuple[int, int], ...]:
        return _sym_pairs(self.dim)

    @property
    def vec_dim(self) -> int:
        return self.dim * (self.dim + 1) // 2

    def vectorize(self, g: SymMat) -> tuple[tuple[int, ...], int]:
        return tuple(g.num[i][j] for i, j in self.sym_pairs), g.den

    def devectorize(self, v, den: int = 1) -> SymMat:
        return SymMat(tuple(tuple(map(v.__getitem__, row)) for row in _sym_index(self.dim)), den)

    def basis(self) -> tuple[SymMat, ...]:
        return _sym_basis(self.dim)


@lru_cache(maxsize=ORDER_CAP)
def _matrix_leq(a: SymMat, b: SymMat) -> bool:
    """a <= b in the positive-semidefinite order, keyed by the exact pair:
    is_psd of the integer rows of b - a over their common denominator, a
    positive scaling of b - a, unreduced."""
    return linalg.is_psd(linalg.combine(b.num, b.den, a.num, a.den, -1)[0])


@lru_cache(maxsize=None)
def _sym_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(dim) for j in range(i, dim))


@lru_cache(maxsize=None)
def _sym_index(dim: int) -> tuple[tuple[int, ...], ...]:
    """The position in a vectorization (_sym_pairs order) of each entry (i, j)."""
    pos = {pair: k for k, pair in enumerate(_sym_pairs(dim))}
    return tuple(tuple(pos[min(i, j), max(i, j)] for j in range(dim)) for i in range(dim))


@lru_cache(maxsize=None)
def _sym_scalar(dim: int, k: int) -> SymMat:
    """k times the identity, built once per (dim, k)."""
    return SymMat(tuple(tuple(k * (i == j) for j in range(dim)) for i in range(dim)))


@lru_cache(maxsize=None)
def _sym_basis(dim: int) -> tuple[SymMat, ...]:
    return tuple(
        SymMat(tuple(tuple(int({r, c} == {i, j}) for c in range(dim)) for r in range(dim)))
        for i, j in _sym_pairs(dim)
    )


class Endomorphism(Value):
    """Group endomorphism of a carrier, as the matrix `matrix / den` on its vectorization.

    Stored in lowest terms with den > 0, as SymMat is; lattice maps have
    den 1.  For matrix carriers, an endomorphism arising as g -> p g p
    remembers its conjugator; the analytic facts about such maps (order
    preservation, the compression property) hinge on that form.

    A matrix map the program builds as a conjugation g -> a g a^T keeps its
    frame a in _frame, as (rows, d) for a = rows / d in lowest terms with
    its first nonzero entry positive (_canonical_frame): conjugation_endo,
    identity_endo and zero_endo give one, and compose gives the composite
    of two framed maps the product frame (its conjugator stays None).  On
    framed maps compose is an n x n product, apply is a g a^T, and
    endo_equal and map_key compare frames.  The vectorized matrix and den
    of a framed map are fields, but they are built only when first read
    (__getattr__, _vectorized): by jsonable, equality, hashing and pickling,
    by sums such as a commutant's projector, and by compose and endo_equal
    with a map that has no frame.  A map built by the constructor keeps
    the matrix it is given and has no frame, whatever its conjugator, so
    compression's matrix_matches_conjugator tests that matrix.  map_key
    reads the frame of such a map off its matrix where it has one
    (_frame_of) and keeps it, so keys agree across the two forms.  _frame
    is None on a matrix map not yet read so, and False on a lattice map or
    a matrix map that is no conjugation.

    On a lattice carrier (carrier.finite) the map keeps an image table,
    _images, from the coordinates of each element it has mapped to the
    image: apply computes each product once per distinct map and element,
    and the checks that meet an element again read the stored image: the
    sweeps of the retraction certificate and is_compression, the kernel
    exchange, the morphism laws and the battery (absorption and the
    product split read cone generators).  The
    table is the carrier's, kept in carrier._tables under (matrix, den), so
    equal maps on one carrier share it, and it is freed with the carrier.
    Only a successful image is stored, so a map that leaves the lattice
    raises ValueError on every call.  A matrix map keeps no table: its
    inputs are sampled, so a table would only grow with the budget.  The
    table and the frame are not fields, so equality, hashing, repr and
    pickling ignore them; a pickled map takes the table of its unpickled
    carrier, and a pickled framed map comes back as its matrix.
    """

    __slots__ = ("carrier", "matrix", "den", "conjugator", "_images", "_frame")

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
        _set_endo(self, carrier, matrix, den, conjugator)

    def __getattr__(self, name):
        # reached only for a slot left unset: matrix and den of a framed map
        if name != "matrix" and name != "den":
            raise AttributeError(f"'Endomorphism' object has no attribute {name!r}")
        matrix, den = _vectorized(self.carrier, *self._frame)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "den", den)
        return matrix if name == "matrix" else den

    def apply(self, g):
        images = self._images
        if images is None:
            frame = self._frame
            if frame:
                # a g a^T is a (a g)^T, g being symmetric
                rows, d = frame
                ag_t = linalg.transpose(linalg.mat_mul(rows, g.num))
                return SymMat(linalg.mat_mul(rows, ag_t), d * d * g.den)
            v, den = self.carrier.vectorize(g)
            return self.carrier.devectorize(linalg.mat_vec(self.matrix, v), self.den * den)
        # a lattice element vectorizes as its coordinates over 1
        image = images.get(g.coords)
        if image is None:
            image = self.carrier.devectorize(linalg.mat_vec(self.matrix, g.coords), self.den)
            images[g.coords] = image
        return image

    def jsonable(self):
        out = {"matrix": ratio_rows(self.matrix, self.den)}
        if self.conjugator is not None:
            out["conjugator"] = self.conjugator
        return out


def _set_endo(endo: Endomorphism, carrier, matrix, den: int, conjugator) -> None:
    """Fill the fields of endo with matrix / den in lowest terms, and give a
    lattice map the image table of its (matrix, den) on the carrier."""
    if den != 1:
        matrix, den = linalg.lowest_terms(matrix, den)
    finite = carrier.finite
    images = carrier._tables.setdefault((matrix, den), {}) if finite else None
    object.__setattr__(endo, "carrier", carrier)
    object.__setattr__(endo, "matrix", matrix)
    object.__setattr__(endo, "den", den)
    object.__setattr__(endo, "conjugator", conjugator)
    object.__setattr__(endo, "_images", images)
    object.__setattr__(endo, "_frame", False if finite else None)


def _trusted_endo(carrier, matrix, den: int = 1, conjugator: SymMat | None = None) -> Endomorphism:
    """The map matrix / den without the shape check, for a matrix the
    program computed from checked maps of the carrier."""
    endo = object.__new__(Endomorphism)
    _set_endo(endo, carrier, matrix, den, conjugator)
    return endo


def _framed_endo(carrier: "MatrixModel", rows, d: int, conjugator=None) -> Endomorphism:
    """The matrix map g -> a g a^T for the frame a = rows / d, with no
    vectorized matrix until one is read."""
    endo = object.__new__(Endomorphism)
    object.__setattr__(endo, "carrier", carrier)
    object.__setattr__(endo, "conjugator", conjugator)
    object.__setattr__(endo, "_images", None)
    object.__setattr__(endo, "_frame", _canonical_frame(rows, d))
    return endo


def _canonical_frame(rows, d: int) -> tuple:
    """rows / d in lowest terms, negated when its first nonzero entry is
    negative: the one frame of its map, as a and -a give the same map
    (endo_equal).  The zero frame is zeros over 1."""
    if d != 1:
        rows, d = linalg.lowest_terms(rows, d)
    for x in itertools.chain.from_iterable(rows):
        if x:
            if x < 0:
                rows = tuple(tuple(-y for y in row) for row in rows)
            break
    return rows, d


def _vectorized(carrier: "MatrixModel", a, d: int) -> tuple:
    """The matrix and den of g -> A g A^T / d^2: the entry at row (i, j),
    column (k, l) is (A B A^T)_ij for the basis matrix B of (k, l),
    A_ik A_jl + A_il A_jk (the first term alone when k = l).  With A / d in
    lowest terms this is in lowest terms too: every entry is a multiple of
    the square of the gcd of A's entries, the A_ik^2 among them, and that
    square shares no factor with d^2."""
    pairs = carrier.sym_pairs
    matrix = tuple(
        tuple(a[i][k] * a[j][l] + (k != l) * a[i][l] * a[j][k] for k, l in pairs)
        for i, j in pairs
    )
    return matrix, d * d


def _frame_of(carrier: "MatrixModel", matrix, den: int):
    """The canonical frame a with matrix / den the map g -> a g a^T, or
    False when the map is no conjugation.

    With a = A / d in lowest terms the map's den is d^2 (_vectorized).  The
    column of the basis matrix E_kk holds A_ik A_jk at row (i, j): column k
    of A up to its sign, read through the first i with A_ik != 0.  The
    column of (k0, l), for k0 the first nonzero column of A, holds
    A_ik0 A_jl + A_il A_jk0; for nonzero columns that is not zero at every
    (i, j) (u v^T + v u^T = 0 needs u = 0 or v = 0), and its sign there
    fixes the sign of column l against column k0.  The candidate is kept
    only if its own matrix is the map's.
    """
    n = carrier.dim
    index = _sym_index(n)

    def entry(i, j, k, l):
        return matrix[index[i][j]][index[k][l]]

    d = math.isqrt(den)
    if d * d != den:
        return False
    cols = []
    for k in range(n):
        top = next((i for i in range(n) if entry(i, i, k, k)), None)
        square = 0 if top is None else entry(top, top, k, k)
        root = math.isqrt(square) if square > 0 else 0
        if root * root != square:
            return False
        cols.append([entry(top, j, k, k) // root if root else 0 for j in range(n)])
    nonzero = [k for k, col in enumerate(cols) if any(col)]
    for l in nonzero[1:]:
        k0 = nonzero[0]
        u, v = cols[k0], cols[l]
        i, j = next((i, j) for i, j in carrier.sym_pairs if u[i] * v[j] + v[i] * u[j])
        if entry(i, j, k0, l) != u[i] * v[j] + v[i] * u[j]:
            cols[l] = [-x for x in v]
    frame = _canonical_frame(linalg.transpose(cols), d)
    return frame if _vectorized(carrier, *frame) == (matrix, den) else False


def endo_from_int_matrix(model: LatticeConeModel, rows) -> Endomorphism:
    for row in rows:
        if len(row) != model.dim or not all(isinstance(x, int) for x in row):
            raise ValueError(f"endomorphism row {row!r} does not match dim {model.dim}")
    return Endomorphism(model, tuple(map(tuple, rows)))


def identity_endo(carrier) -> Endomorphism:
    if isinstance(carrier, MatrixModel):
        return _framed_endo(carrier, carrier.unit.num, 1, carrier.unit)
    return Endomorphism(carrier, linalg.identity(carrier.vec_dim))


def zero_endo(carrier) -> Endomorphism:
    if isinstance(carrier, MatrixModel):
        return _framed_endo(carrier, carrier.zero.num, 1, carrier.zero)
    n = carrier.vec_dim
    return Endomorphism(carrier, linalg.zeros(n, n))


@lru_cache(maxsize=4096)
def conjugation_endo(carrier: MatrixModel, p: SymMat) -> Endomorphism:
    """The map g -> p g p, framed by p (see Endomorphism)."""
    return _framed_endo(carrier, p.num, p.den, p)


def compose(a: Endomorphism, b: Endomorphism) -> Endomorphism:
    """a after b (apply b first): the product of the frames when both
    have one, as a g a^T after b g b^T is (ab) g (ab)^T, else of the
    matrices."""
    if a.carrier != b.carrier:
        raise ValueError("cannot compose endomorphisms of different carriers")
    if a._frame and b._frame:
        (ra, da), (rb, db) = a._frame, b._frame
        return _framed_endo(a.carrier, linalg.mat_mul(ra, rb), da * db)
    return _trusted_endo(a.carrier, linalg.mat_mul(a.matrix, b.matrix), a.den * b.den)


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

    Two framed maps are equal exactly when their canonical frames are.
    The maps x -> a x a^T and x -> b x b^T agree on the symmetric matrices
    exactly when a = b or a = -b.  One way is plain.  For the other, test
    them on x = v v^T for a vector v: (a v)(a v)^T = (b v)(b v)^T, and two
    vectors with equal outer squares are equal up to sign, so a v = b v or
    a v = -b v.  Every v of Q^n thus lies in ker(a - b) or in ker(a + b),
    and Q^n is not the union of two proper subspaces, so one of them is
    all of Q^n.  _canonical_frame picks one of a and -a, so framed maps
    are equal exactly when their frames are.  A pair with a map that has
    no frame compares the matrices.
    """
    restrict = getattr(structure, "restrict", None)
    if restrict is not None:
        a, b = restrict(a), restrict(b)
    if a._frame and b._frame:
        return a._frame == b._frame
    return a.den == b.den and a.matrix == b.matrix


def map_key(structure, a: Endomorphism) -> tuple:
    """The key of a read as a map of `structure` (of a itself on a model,
    of aP on a substructure with projector P, which the substructure
    composes once per map and keeps): two keys are equal exactly when
    endo_equal holds.  A matrix map with a frame, or whose matrix is a
    conjugation (_frame_of, tried once per map), is keyed by its
    canonical frame, tagged so that no matrix key meets it; any other map
    by its matrix and den."""
    restrict = getattr(structure, "restrict", None)
    if restrict is not None:
        a = restrict(a)
    frame = a._frame
    if frame is None:
        frame = _frame_of(a.carrier, a.matrix, a.den)
        object.__setattr__(a, "_frame", frame)
    return ("frame", *frame) if frame else (a.matrix, a.den)


# ---------------------------------------------------------------------------
# unital group validation


def validate_unital_group(structure) -> Report:
    """Check the unital-group axioms for a model or substructure.

    Finite structures are decided exactly: directedness from the cone rows
    and the unit, and interval_generates_positives by one sweep of the
    positive box of the derived height (_generation_height); on a cone
    that is not pointed the report ends after unit_positive_nonzero, and a
    box of more than _POINT_CAP points raises UnboundedIntervalError.  On
    matrix structures every axiom is decided from the form of the operator
    order and of the structure's projection (see _validate_matrix).
    """
    if structure.finite:
        return _validate_finite(structure)
    return _validate_matrix(structure)


def _validate_finite(structure) -> Report:
    rep = Report(title="unital group axioms")
    top_level = isinstance(structure, LatticeConeModel)

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
    if not pointed.ok:
        # a line runs through each point of the interval, if it has one
        return rep

    interval = structure.interval()
    rep.add(
        Clause(
            "interval_finite",
            PASS,
            checked=len(interval),
            note=f"|E| = {len(interval)}",
        )
    )

    if top_level:
        order_unit = _directedness_exact(structure, interval, rep)
    else:
        order_unit = _directedness_substructure(structure, rep)

    if not order_unit.ok:
        # no multiple of the unit bounds the cone's Hilbert basis
        rep.add(derived("interval_generates_positives", (order_unit,), ""))
        return rep
    height = _generation_height(structure)
    box, bounded = _generation_box(structure, height)
    name = "interval_generates_positives"
    note = (
        f"every positive below {height}*unit, which bounds the Hilbert basis, "
        "is a sum of interval elements"
    )
    if height == 1 and bounded:
        # the box is the interval, each of whose members is its own sum
        rep.add(Clause(name, PASS, checked=len(box), note=note))
    else:
        reach = _interval_sums(structure, box)
        rep.add(law(name, box, lambda g: g.coords in reach, witness="positive", note=note))
    return rep


def _unit_clause(structure) -> Clause:
    return law(
        "unit_positive_nonzero",
        (structure.unit,),
        lambda u: structure.is_positive(u) and (not u.is_zero() or structure.is_trivial),
        witness="unit",
    )


def _directedness_exact(model: LatticeConeModel, interval, rep: Report) -> Clause:
    """Directedness for a top-level lattice model, decided exactly; returns
    the unit_order_unit clause.

    The group is directed with order unit u iff the unit interval generates
    Z^dim as a group and every nonzero cone row pairs strictly positively
    with u (so a multiple of u eventually dominates any element).  The
    index of the group the interval generates is |det B| for a Z-basis B of
    it (lattice_basis), and 0 when B has fewer than dim rows.
    """
    nonzero = [e.coords for e in interval if not e.is_zero()]
    basis = lattice_basis(nonzero)
    index = abs(linalg.int_det(basis)) if len(basis) == model.dim else 0
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
    return rep.add(
        law(
            "unit_order_unit",
            model.cone_rows,
            lambda row: not any(row) or _dot(row, model.unit.coords) > 0,
            witness=lambda row: {"cone_row": list(row)},
            note="each nonzero cone row must pair strictly positively with the unit",
        )
    )


def _directedness_substructure(structure, rep: Report) -> Clause:
    """Directedness of a finite substructure, decided exactly: its unit must
    be a member and an order unit.  Returns the unit_order_unit clause.

    The substructure H is the group of its members, ordered by the
    model's cone rows r (g >= 0 iff r . g >= 0 for every r).  u is an order
    unit of H when every g in H has a multiple m*u with m*u - g >= 0, i.e.
    m (r . u) >= r . g for every row r.  A row with r . u > 0 allows this
    for m large enough.  A row with r . u <= 0 forces r . g <= 0 for every
    g in H, and so, as H contains -g with g, r . g = 0: the row must
    vanish on H, that is on its Z-basis (member_lattice).  A row that
    fails both is the witness.  The rows alone cannot see a unit outside
    H, so membership is tested last.
    """
    unit = structure.unit.coords
    basis = member_lattice(structure)
    rows = law(
        "unit_order_unit",
        structure.carrier.cone_rows,
        lambda r: _dot(r, unit) > 0 or not any(_dot(r, b) for b in basis),
        witness="cone_row",
        note="a cone row vanishes at the unit but not on the subgroup",
    )
    if rows.ok:
        note = "every cone row is positive at the unit or vanishes on the subgroup"
        rows = law(
            "unit_order_unit", (structure.unit,), structure.is_member, witness="unit", note=note
        )
    return rep.add(rows)


def _generation_height(structure) -> int:
    """N(C, u): the least m >= 1 with m*u - s in the structure's positive
    cone C, s the sum of C's ray generators (generators).

    C is pointed here, so G+ is generated by its Hilbert basis, whose
    elements are irreducible: [0, u] generates G+ exactly when it holds the
    Hilbert basis.  Triangulate C by its rays: each Hilbert basis element
    is a ray generator or lies in the half-open parallelepiped sum l_i r_i,
    0 <= l_i < 1, of some simplicial piece, so it lies below s, and below
    N*u.  The positive box of height N thus holds the Hilbert basis, and
    _interval_sums on it decides the axiom (Schrijver 1986, section 16.4).
    A row with r . u <= 0 vanishes on the structure once unit_order_unit
    holds, so it bounds nothing.
    """
    s = [sum(col) for col in zip(*(g.coords for g in generators(structure)[1]))]
    height = 1
    for r in structure.carrier.cone_rows:
        at_unit = _dot(r, structure.unit.coords)
        if at_unit > 0:
            height = max(height, -(-_dot(r, s) // at_unit))
    return height


def _generation_box(structure, height: int) -> tuple[tuple, bool]:
    """The members g with 0 <= g <= height*unit, and whether the unit lies
    below every bound.

    N(C, u) bounds the Hilbert basis by the structure's own unit, while its
    positive box (positive_box) is cut by every unit up to the model.  The
    two agree when the unit is below each bound, as a focus in the interval
    is, and then the kept box is used.  A substructure whose unit is not
    (a focus outside [0, u]) gets the box of its unit alone: the cut one
    may miss positives, the unit among them, that the interval does not
    reach.
    """
    unit = structure.unit
    if all(structure.leq(unit, w) for w in structure.bounds):
        return structure.positive_universe(height), True
    points = range_band(structure.carrier, member_lattice(structure), (unit,), 0, height)
    return tuple(points), False


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

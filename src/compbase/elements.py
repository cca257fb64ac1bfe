"""Group elements: integer lattice vectors and symmetric rational matrices.

Both carriers are small frozen values (value.Value) with exact
arithmetic and hand-written __init__, __eq__ and __hash__, since they are
built and compared in every hot loop: each hashes as the tuple of its
fields and prints as Vec(coords=...) or SymMat(num=..., den=...). A Vec
lives in Z^n. A SymMat is a symmetric rational d x d matrix stored as
integer rows over one positive denominator in lowest terms, so `==` and
`hash` are exact and the linalg kernels run on the stored ints.

Values are checked where they enter and trusted after that. Input from
outside goes through the checking constructors: Vec(coords) raises
TypeError on a coordinate that is not an int, and SymMat.from_rows checks
shape and symmetry. Values the program computes from checked ones are
built unchecked: Vec sums, differences, negations and int multiples go
through _trusted_vec, as do the lattice points and map images of
`models`, and the SymMat constructor trusts its rows. Arithmetic still
raises ValueError on an operand that is not an element of the same kind
and dimension, and Vec.scale raises TypeError on a multiplier that is not
an int.

Fractions appear only at the edges: parse_integer and parse_rational read
text, and SymMat.rows and sort_key give Fractions for JSON and ordering.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add, neg, sub

from . import linalg
from .value import Value

_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(rf"({_INTEGER.pattern})(?:/([0-9]+))?")


def parse_integer(text: str) -> int:
    """An optionally signed string of ASCII digits; unlike int(), no "1_000"
    and no digits of other scripts."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """An integer or an "a/b" string of integers; unlike Fraction(), no
    decimals, exponents ("1e-3" asks for a 10^N denominator) or "1_000"."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f'{text!r} is not an integer or an "a/b" string of integers')
    num, den = match.groups()
    return Fraction(int(num), int(den or 1))


def fraction_rows(num, den: int) -> tuple[tuple[Fraction, ...], ...]:
    """Integer rows over one denominator as rows of Fractions, for JSON and display."""
    return tuple(tuple(Fraction(x, den) for x in row) for row in num)


class Vec(Value):
    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]) -> None:
        if not all(isinstance(c, int) for c in coords):
            raise TypeError("Vec coordinates must be ints")
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coords,))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __add__(self, other: "Vec") -> "Vec":
        self._check(other)
        return _trusted_vec(tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "Vec") -> "Vec":
        self._check(other)
        return _trusted_vec(tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "Vec":
        return _trusted_vec(tuple(map(neg, self.coords)))

    def scale(self, k: int) -> "Vec":
        if not isinstance(k, int):
            raise TypeError("Vec multiples must be by ints")
        return _trusted_vec(tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def sort_key(self):
        return self.coords

    def _check(self, other: "Vec") -> None:
        if not isinstance(other, Vec) or other.dim != self.dim:
            raise ValueError(
                f"shape mismatch: expected Vec of dim {self.dim}, got {other!r}"
            )

    @staticmethod
    def zero(dim: int) -> "Vec":
        return _trusted_vec((0,) * dim)


def _trusted_vec(coords: tuple[int, ...]) -> Vec:
    """The Vec of `coords` without the int check, for ints the program computed."""
    v = object.__new__(Vec)
    object.__setattr__(v, "coords", coords)
    return v


class SymMat(Value):
    """The symmetric matrix num / den, put in lowest terms with den > 0.

    `num` (a tuple of int tuples) is trusted to be square and symmetric.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: tuple[tuple[int, ...], ...], den: int = 1) -> None:
        if den != 1:
            num, den = linalg.lowest_terms(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.den == other.den and self.num == other.num
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    @staticmethod
    def from_rows(rows) -> "SymMat":
        """Checked constructor: ints, Fractions or "a/b" strings, square and symmetric."""
        ratios = [
            [(parse_rational(x) if isinstance(x, str) else x).as_integer_ratio() for x in row]
            for row in rows
        ]
        n = len(ratios)
        if any(len(r) != n for r in ratios):
            raise ValueError("SymMat must be square")
        den = lcm(*(d for row in ratios for _, d in row))
        num = tuple(tuple(x * (den // d) for x, d in row) for row in ratios)
        if any(num[i][j] != num[j][i] for i in range(n) for j in range(i + 1, n)):
            raise ValueError("SymMat must be exactly symmetric")
        return SymMat(num, den)

    @staticmethod
    def zero(dim: int) -> "SymMat":
        return SymMat(linalg.zeros(dim, dim))

    @staticmethod
    def identity(dim: int) -> "SymMat":
        return SymMat(linalg.identity(dim))

    @property
    def dim(self) -> int:
        return len(self.num)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return fraction_rows(self.num, self.den)

    def __add__(self, other: "SymMat") -> "SymMat":
        self._check(other)
        return SymMat(*linalg.combine(self.num, self.den, other.num, other.den))

    def __sub__(self, other: "SymMat") -> "SymMat":
        self._check(other)
        return SymMat(*linalg.combine(self.num, self.den, other.num, other.den, -1))

    def __neg__(self) -> "SymMat":
        return SymMat(tuple(tuple(-x for x in row) for row in self.num), self.den)

    def scale(self, k) -> "SymMat":
        n, d = k.as_integer_ratio()
        return SymMat(tuple(tuple(n * x for x in row) for row in self.num), self.den * d)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def sort_key(self):
        return tuple(x for row in self.rows for x in row)

    def _check(self, other: "SymMat") -> None:
        if not isinstance(other, SymMat) or other.dim != self.dim:
            raise ValueError(
                f"shape mismatch: expected SymMat of dim {self.dim}, got {other!r}"
            )


def conjugate(p: SymMat, g: SymMat) -> SymMat:
    """p g p, the sandwich of g by p. Symmetric whenever p and g are."""
    pgp = linalg.mat_mul(linalg.mat_mul(p.num, g.num), p.num)
    return SymMat(pgp, p.den * p.den * g.den)


GroupElement = "Vec | SymMat"

"""The unit interval of a unital group as a partial algebra.

The carrier is E = {e : 0 <= e <= u}.  The partial sum e (+) f is the group
sum when it stays below the unit and is undefined otherwise; undefined is an
ordinary value here (None), not an error.  On top of that partial operation
the module builds Mackey decompositions, sub-effect algebras, the normality
condition used by compression bases, and the center.  The algebra, its
sub-effect algebras and Mackey triples are frozen values (value.Value).
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Optional

from .models import NotEnumerableError, down_set
from .reporting import FAIL, PASS, Clause, law
from .value import Value


class MembershipError(ValueError):
    """An argument lies outside the algebra it was claimed to belong to."""


class EffectAlgebra(Value):
    """Interval [0, u] of a structure, with the partial sum.

    The structure can be a full model or a substructure view; everything
    here goes through its order and membership predicates.
    """

    __slots__ = ("structure",)

    def __init__(self, structure: Any) -> None:
        object.__setattr__(self, "structure", structure)

    @property
    def unit(self):
        return self.structure.unit

    @property
    def zero(self):
        return self.structure.zero

    @property
    def elements(self) -> Optional[tuple]:
        """All effects in deterministic order, or None when not enumerable."""

        if not self.structure.finite:
            return None
        return self.structure.interval()

    def contains(self, e) -> bool:
        return (
            self.structure.is_member(e)
            and self.structure.is_positive(e)
            and self.structure.leq(e, self.unit)
        )

    def _require(self, e, name: str):
        if not self.contains(e):
            raise MembershipError(f"{name} is not an effect of this algebra")

    def orthosupplement(self, e):
        """The unique f with e (+) f = u."""

        self._require(e, "e")
        return self.unit - e

    def oplus(self, e, f):
        """Partial sum: e + f when that is still an effect, else None."""

        self._require(e, "e")
        self._require(f, "f")
        s = e + f
        if not self.structure.leq(s, self.unit):
            return None
        return s

    def defined(self, e, f) -> bool:
        return self.oplus(e, f) is not None


class MackeyTriple(Value):
    """Witness that e and f decompose as e = e1 + d, f = f1 + d.

    The triple certifies compatibility: e1, f1, d are effects and
    e1 + f1 + d stays below the unit.
    """

    __slots__ = ("e1", "f1", "d")

    def __init__(self, e1: Any, f1: Any, d: Any) -> None:
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "d", d)

    def jsonable(self):
        return {"e1": self.e1, "f1": self.f1, "d": self.d}


class SubEffectAlgebra(Value):
    """A subset of the effects, wrapped with its parent algebra.

    Construction does not validate closure; run is_sub_effect_algebra to
    certify the laws.
    """

    __slots__ = ("algebra", "members")

    def __init__(self, algebra: EffectAlgebra, members: frozenset) -> None:
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "members", members)

    def __contains__(self, e) -> bool:
        return e in self.members

    def sorted_members(self) -> tuple:
        return tuple(sorted(self.members, key=lambda m: m.sort_key()))


def mackey_decompositions(
    algebra: EffectAlgebra,
    e,
    f,
    within: Optional[SubEffectAlgebra] = None,
) -> tuple[MackeyTriple, ...]:
    """All Mackey triples for the pair (e, f), in deterministic order.

    A triple arises from each d with d <= e, d <= f and e + f - d <= u; the
    summands are then e - d and f - d.  With `within`, the search is
    restricted so that d, e - d and f - d all lie in the given sub-effect
    algebra (e and f must be members themselves).

    Without `within` the candidates d are the interval's effects below e
    (models.down_set), so the structure has to be enumerable.
    """

    algebra._require(e, "e")
    algebra._require(f, "f")
    if within is not None:
        if e not in within or f not in within:
            raise MembershipError("e and f must belong to the sub-effect algebra")
        pool = within.sorted_members()
        member = within.members.__contains__
    else:
        if algebra.elements is None:
            raise NotEnumerableError(
                "decomposition search over a non-enumerable interval needs "
                "an explicit sub-effect algebra to search within"
            )
        pool = down_set(algebra.structure, e)
        member = None

    return tuple(mackey_triples(algebra.structure, e, f, pool, member))


def mackey_triples(structure, e, f, pool, member=None):
    """The Mackey triples (e - d, f - d, d) of e and f with d from pool, in
    pool order: d <= e, d <= f and e + f - d <= u.  With member, e - d and
    f - d must pass it too.  No argument is checked for membership."""

    leq = structure.leq
    unit = structure.unit
    for d in pool:
        if not (leq(d, e) and leq(d, f)):
            continue
        e1 = e - d
        f1 = f - d
        if member is not None and not (member(e1) and member(f1)):
            continue
        if leq(e + f - d, unit):
            yield MackeyTriple(e1, f1, d)


def is_mackey_compatible(
    algebra: EffectAlgebra,
    e,
    f,
    within: Optional[SubEffectAlgebra] = None,
) -> bool:
    """Whether at least one Mackey triple exists for (e, f)."""

    return len(mackey_decompositions(algebra, e, f, within=within)) > 0


def is_sub_effect_algebra(algebra: EffectAlgebra, members: Iterable) -> Clause:
    """Check that a finite set of effects is closed under the algebra laws.

    Required: every member is an effect, 0 and u belong, orthosupplements
    stay inside, and defined partial sums of members stay inside.  The
    membership of 0 and u is not counted in checked.
    """

    mset = frozenset(members)
    ordered = sorted(mset, key=lambda m: m.sort_key())
    checked = 0

    def fail(**witness) -> Clause:
        return Clause("foci_sub_effect_algebra", FAIL, checked=checked, witness=witness)

    for m in ordered:
        checked += 1
        if not algebra.contains(m):
            return fail(check="member_is_effect", element=m)
    if algebra.zero not in mset:
        return fail(check="contains_zero")
    if algebra.unit not in mset:
        return fail(check="contains_unit")
    for m in ordered:
        checked += 1
        comp = algebra.unit - m
        if comp not in mset:
            return fail(check="orthosupplement_closed", element=m, missing=comp)
    for a in ordered:
        for b in ordered:
            checked += 1
            s = algebra.oplus(a, b)
            if s is not None and s not in mset:
                return fail(check="partial_sum_closed", e=a, f=b, missing=s)
    return Clause("foci_sub_effect_algebra", PASS, checked=checked)


def is_normal_subalgebra(algebra: EffectAlgebra, sub: SubEffectAlgebra) -> Clause:
    """Exhaustive normality check over an enumerable interval.

    Normality: whenever e + f + d <= u with e + d and f + d both in the
    subalgebra, d itself must be in the subalgebra.  The scan only visits
    candidate d outside the subalgebra and reconstructs e and f from member
    sums, which keeps the search at |E| * |P|^2 instead of |E|^3.
    """

    elements = algebra.elements
    if elements is None:
        raise NotEnumerableError("normality scan requires an enumerable interval")
    leq = algebra.structure.leq
    members = sub.sorted_members()
    contains = algebra.contains

    def candidates():
        for d in elements:
            if d in sub.members:
                continue
            # e + d in P means e = p - d for some member p with d <= p.
            effects = [p - d for p in members if leq(d, p) and contains(p - d)]
            for e, f in itertools.product(effects, repeat=2):
                yield e, f, d

    return law(
        "foci_normal_subalgebra",
        candidates(),
        lambda efd: not leq(efd[0] + efd[1] + efd[2], algebra.unit),
        witness=("e", "f", "d"),
    )


def center(algebra: EffectAlgebra) -> SubEffectAlgebra:
    """Central effects of an enumerable algebra.

    Greechie, Foulis and Pulmannova ("The center of an effect algebra",
    Order 12, 1995): c is central, that is f -> (f1, f2) is an isomorphism
    of E onto [0, c] x [0, u - c] where f = f1 + f2 with f1 <= c and
    f2 <= u - c, exactly when (a) c and u - c are principal (e, f <= p and
    e + f <= u give e + f <= p) and (b) every f has such a split.  The test
    here is (a) and (b'): every f has exactly one split.  A central c has
    (a), as effects below c map to (e, 0) and sums are componentwise, and
    (b'), as a split f1 + f2 maps to (f1, 0) + (0, f2), the image of f; and
    (a) with (b') gives (a) with (b).  Without (a), c = (-2, -1) would be
    central on the cone [[-1, 2], [-2, 0]] with unit (-3, 3).

    The result is validated as a normal sub-effect algebra before it is
    returned; a failure there means the characterization is broken, so it
    raises.
    """

    elements = algebra.elements
    if elements is None:
        raise NotEnumerableError("center computation requires an enumerable interval")
    structure = algebra.structure
    leq = structure.leq
    unit = algebra.unit

    def principal(p) -> bool:
        below = down_set(structure, p)
        return all(leq(e + f, p) or not leq(e + f, unit) for e in below for f in below)

    def splits_once(c, f) -> bool:
        splits = (f1 for f1 in elements if leq(f1, f) and leq(f1, c) and leq(f - f1, unit - c))
        return len(list(itertools.islice(splits, 2))) == 1

    central = [
        c
        for c in elements
        if principal(c) and principal(unit - c) and all(splits_once(c, f) for f in elements)
    ]

    sub = SubEffectAlgebra(algebra, frozenset(central))
    closure = is_sub_effect_algebra(algebra, sub.members)
    if not closure.ok:
        raise RuntimeError(f"central effects failed closure: {closure.witness!r}")
    normal = is_normal_subalgebra(algebra, sub)
    if not normal.ok:
        raise RuntimeError(f"central effects failed normality: {normal.witness!r}")
    return sub

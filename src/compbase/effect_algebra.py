"""The unit interval of a unital group as a partial algebra.

The carrier is E = {e : 0 <= e <= u} of a structure, a full model or a
substructure view: is_effect is the one test of membership in E, through
the structure's membership, positivity and order.  The partial sum e (+) f
is the group sum when it stays below the unit and is undefined otherwise.
Every function here takes the structure itself and builds on that partial
operation: Mackey decompositions, the sub-effect-algebra laws, the
normality condition used by compression bases, and the center.  A set of
effects is an ordinary collection, searched in sort_key order; a Mackey
triple is a frozen value (value.Value).
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Optional

from .models import down_set
from .reporting import FAIL, PASS, Clause, law
from .value import Value


class MembershipError(ValueError):
    """An argument lies outside the algebra it was claimed to belong to."""


def is_effect(structure, x) -> bool:
    """x is a member of the structure with 0 <= x <= u."""

    return structure.is_member(x) and structure.is_positive(x) and structure.leq(x, structure.unit)


def _sorted(members) -> list:
    return sorted(members, key=lambda m: m.sort_key())


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


def _search(structure, e, f, within: Optional[Iterable]):
    """The Mackey triples of (e, f), lazily, once e and f are checked."""

    for name, x in (("e", e), ("f", f)):
        if not is_effect(structure, x):
            raise MembershipError(f"{name} is not an effect of this algebra")
    if within is None:
        return mackey_triples(structure, e, f, down_set(structure, e))
    members = frozenset(within)
    if e not in members or f not in members:
        raise MembershipError("e and f must belong to the sub-effect algebra")
    return mackey_triples(structure, e, f, _sorted(members), members.__contains__)


def mackey_decompositions(structure, e, f, within: Optional[Iterable] = None) -> tuple:
    """All Mackey triples for the pair (e, f), in deterministic order.

    A triple arises from each d with d <= e, d <= f and e + f - d <= u; the
    summands are then e - d and f - d.  With `within`, a collection of
    effects holding e and f, the search is restricted so that d, e - d and
    f - d all lie in it, and d runs over it in sort_key order.

    Without `within` the candidates d are the interval's effects below e
    (models.down_set), so the structure has to be enumerable: a matrix
    structure raises NotEnumerableError there.
    """

    return tuple(_search(structure, e, f, within))


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


def is_mackey_compatible(structure, e, f) -> bool:
    """Whether a Mackey triple exists for (e, f) in the interval; the
    search stops at the first."""

    return next(_search(structure, e, f, None), None) is not None


def is_sub_effect_algebra(structure, members: Iterable) -> Clause:
    """Check that a finite set of effects is closed under the algebra laws.

    Required: every member is an effect, 0 and u belong, orthosupplements
    stay inside, and defined partial sums of members stay inside.  The
    membership of 0 and u is not counted in checked.
    """

    mset = frozenset(members)
    ordered = _sorted(mset)
    unit = structure.unit
    checked = 0

    def fail(**witness) -> Clause:
        return Clause("foci_sub_effect_algebra", FAIL, checked=checked, witness=witness)

    for m in ordered:
        checked += 1
        if not is_effect(structure, m):
            return fail(check="member_is_effect", element=m)
    if structure.zero not in mset:
        return fail(check="contains_zero")
    if unit not in mset:
        return fail(check="contains_unit")
    for m in ordered:
        checked += 1
        comp = unit - m
        if comp not in mset:
            return fail(check="orthosupplement_closed", element=m, missing=comp)
    leq = structure.leq
    for a in ordered:
        for b in ordered:
            checked += 1
            s = a + b
            if leq(s, unit) and s not in mset:
                return fail(check="partial_sum_closed", e=a, f=b, missing=s)
    return Clause("foci_sub_effect_algebra", PASS, checked=checked)


def is_normal_subalgebra(structure, members: Iterable) -> Clause:
    """Exhaustive normality check over an enumerable interval.

    Normality: whenever e + f + d <= u with e + d and f + d both in the
    subalgebra, d itself must be in the subalgebra.  The scan only visits
    candidate d outside the subalgebra and reconstructs e and f from member
    sums, which keeps the search at |E| * |P|^2 instead of |E|^3.
    """

    elements = structure.interval()
    leq = structure.leq
    mset = frozenset(members)
    ordered = _sorted(mset)

    def candidates():
        for d in elements:
            if d in mset:
                continue
            # e + d in P means e = p - d for some member p with d <= p.
            effects = [p - d for p in ordered if leq(d, p) and is_effect(structure, p - d)]
            for e, f in itertools.product(effects, repeat=2):
                yield e, f, d

    return law(
        "foci_normal_subalgebra",
        candidates(),
        lambda efd: not leq(efd[0] + efd[1] + efd[2], structure.unit),
        witness=("e", "f", "d"),
    )


def center(structure) -> frozenset:
    """Central effects of an enumerable structure.

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

    elements = structure.interval()
    leq = structure.leq
    unit = structure.unit

    def principal(p) -> bool:
        below = down_set(structure, p)
        return all(leq(e + f, p) or not leq(e + f, unit) for e in below for f in below)

    def splits_once(c, f) -> bool:
        splits = (f1 for f1 in elements if leq(f1, f) and leq(f1, c) and leq(f - f1, unit - c))
        return len(list(itertools.islice(splits, 2))) == 1

    central = frozenset(
        c
        for c in elements
        if principal(c) and principal(unit - c) and all(splits_once(c, f) for f in elements)
    )

    closure = is_sub_effect_algebra(structure, central)
    if not closure.ok:
        raise RuntimeError(f"central effects failed closure: {closure.witness!r}")
    normal = is_normal_subalgebra(structure, central)
    if not normal.ok:
        raise RuntimeError(f"central effects failed normality: {normal.witness!r}")
    return central

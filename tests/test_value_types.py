"""Value-type contract of the package's classes.

For each class: construction by position and keyword with its defaults,
equality and hashing (by fields, or by identity for the two classes that
hold memos), immutability, repr where it reaches output, and the JSON
shape of the classes that reports serialize.
"""

import copy
import pickle
from types import SimpleNamespace

import pytest

from compbase import (
    CheckConfig,
    Clause,
    CompatReport,
    CompressionBase,
    Endomorphism,
    LatticeConeModel,
    MackeyTriple,
    MatrixModel,
    Report,
    RetractionCertificate,
    Substructure,
    SymMat,
    Vec,
    identity_endo,
    jsonable,
)

Z2 = LatticeConeModel(2, ((1, 0), (0, 1)), Vec((1, 1)))
ID = identity_endo(Z2)
PASSED = Clause("law", "pass", 3)

# class -> (field names, one field tuple, another field tuple)
FIELDS = {
    Vec: (("coords",), ((1, 2),), ((2, 1),)),
    SymMat: (("num", "den"), (((1, 0), (0, 0)), 1), (((1, 1), (1, 1)), 2)),
    CheckConfig: (("samples", "seed"), (1000, 0), (10, 1)),
    LatticeConeModel: (
        ("dim", "cone_rows", "unit"),
        (2, ((1, 0), (0, 1)), Vec((1, 1))),
        (2, ((1, 0), (0, 1)), Vec((2, 1))),
    ),
    MatrixModel: (("dim",), (2,), (3,)),
    Endomorphism: (
        ("carrier", "matrix", "den", "conjugator"),
        (Z2, ((1, 0), (0, 1)), 1, None),
        (Z2, ((1, 0), (0, 0)), 1, None),
    ),
    MackeyTriple: (
        ("e1", "f1", "d"),
        (Vec((1, 0)), Vec((0, 1)), Vec((0, 0))),
        (Vec((0, 1)), Vec((1, 0)), Vec((0, 0))),
    ),
    RetractionCertificate: (
        ("structure", "endo", "focus", "checks"),
        (Z2, ID, Vec((1, 1)), ()),
        (Z2, ID, Vec((1, 1)), (("law", PASSED),)),
    ),
    CompatReport: (
        ("p", "q", "conditions"),
        (Vec((1, 0)), Vec((0, 1)), (("commute", True),)),
        (Vec((1, 0)), Vec((1, 1)), (("commute", True),)),
    ),
    Clause: (
        ("name", "status", "checked", "witness", "note", "items"),
        ("law", "pass", 3, None, "", None),
        ("law", "fail", 3, {"g": Vec((1, 0))}, "", None),
    ),
    Report: (("title", "clauses"), ("t", [PASSED]), ("t", [])),
    Substructure: (
        ("parent", "kind", "v", "unit", "projector"),
        (Z2, "image", Vec((1, 1)), Vec((1, 1)), ID),
        (Z2, "commutant", Vec((1, 1)), Vec((1, 1)), ID),
    ),
    CompressionBase: (
        ("structure", "foci", "family", "cfg"),
        (Z2, (Vec((1, 1)),), {Vec((1, 1)): ID}, None),
        (Z2, None, None, CheckConfig(8, 0)),
    ),
}

IDENTITY_HASHED = (Substructure, CompressionBase)
MUTABLE = (Clause, Report)
BY_FIELDS = [c for c in FIELDS if c not in IDENTITY_HASHED]
HASHED_BY_FIELDS = [c for c in BY_FIELDS if c not in MUTABLE]
FROZEN = [c for c in FIELDS if c not in MUTABLE]


def build(cls, which=1):
    return cls(*FIELDS[cls][which])


def values(x, names):
    return tuple(getattr(x, n) for n in names)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields_by_position_and_by_keyword(cls):
    names, fields, _ = FIELDS[cls]
    assert values(cls(*fields), names) == fields
    assert values(cls(**dict(zip(names, fields))), names) == fields


def test_defaults():
    assert values(CheckConfig(), FIELDS[CheckConfig][0]) == (1000, 0)
    assert SymMat(((1, 0), (0, 1))).den == 1
    endo = Endomorphism(Z2, ((1, 0), (0, 1)))
    assert (endo.den, endo.conjugator) == (1, None)
    assert values(Clause("law", "pass"), FIELDS[Clause][0]) == ("law", "pass", 0, None, "", None)
    first, second = Report("a"), Report("b")
    first.add(PASSED)
    assert (first.clauses, second.clauses) == ([PASSED], [])


def test_construction_checks():
    with pytest.raises(TypeError):
        Vec((1, 0.5))
    sym = SymMat(((2, 4), (4, 6)), -4)
    assert (sym.num, sym.den) == (((-1, -2), (-2, -3)), 2)
    endo = Endomorphism(Z2, ((3, 0), (0, 3)), 6)
    assert (endo.matrix, endo.den) == (((1, 0), (0, 1)), 2)
    with pytest.raises(ValueError, match="2x2"):
        Endomorphism(Z2, ((1, 0),))
    with pytest.raises(ValueError):
        CheckConfig(samples=-1)
    with pytest.raises(TypeError):
        CheckConfig(height_bound=3)
    for args in ((0, (), Vec(())), (2, ((1, 0, 0),), Vec((1, 1))), (2, ((1, 0),), Vec((1,)))):
        with pytest.raises(ValueError):
            LatticeConeModel(*args)
    with pytest.raises(ValueError):
        MatrixModel(0)


@pytest.mark.parametrize("cls", BY_FIELDS, ids=lambda c: c.__name__)
def test_equality_is_by_fields_and_class(cls):
    names, fields, other = FIELDS[cls]
    x = cls(*fields)
    assert x == cls(*fields) and not x != cls(*fields)
    assert x != cls(*other) and not x == cls(*other)
    sub = type("Sub", (cls,), {})(*fields)
    for stranger in (fields, SimpleNamespace(**dict(zip(names, fields))), sub):
        assert x != stranger and stranger != x


@pytest.mark.parametrize("cls", HASHED_BY_FIELDS, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_fields(cls):
    assert hash(build(cls)) == hash(FIELDS[cls][1])


def test_unhashable_fields_make_an_unhashable_value():
    with pytest.raises(TypeError):
        hash(build(RetractionCertificate, 2))


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_mutable_classes_are_unhashable_and_assignable(cls):
    x = build(cls)
    with pytest.raises(TypeError):
        hash(x)
    first = FIELDS[cls][0][0]
    setattr(x, first, "renamed")
    assert getattr(x, first) == "renamed" and x != build(cls)


@pytest.mark.parametrize("cls", IDENTITY_HASHED, ids=lambda c: c.__name__)
def test_identity_equality_and_hash(cls):
    x = build(cls)
    assert x == x and x != build(cls)
    assert hash(x) == object.__hash__(x)
    assert {x: 1, build(cls): 2}[x] == 1


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_classes_refuse_assignment(cls):
    names, fields, other = FIELDS[cls]
    x = cls(*fields)
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, other[0])
    for name in names:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert values(x, names) == fields


def test_contains_focus_agrees_with_family(bundled):
    """A declared base answers membership from the keys of its family."""
    for model, base in bundled.values():
        assert set(base.family) == set(base.foci)
        outside = model.unit + model.unit
        for p in (*base.foci, outside):
            assert base.contains_focus(p) == (p in base.family)
        assert not base.contains_focus(outside)
    assert not hasattr(build(CompressionBase), "__dict__")


def test_repr_of_elements_and_config():
    assert repr(Vec((1, 2))) == "Vec(coords=(1, 2))"
    assert repr(SymMat(((2, 0), (0, 0)), 4)) == "SymMat(num=((1, 0), (0, 0)), den=2)"
    assert repr(CheckConfig()) == "CheckConfig(samples=1000, seed=0)"
    with pytest.raises(ValueError, match=r"got Vec\(coords=\(1, 2, 3\)\)$"):
        Vec((1, 2)) + Vec((1, 2, 3))


@pytest.mark.parametrize("cls", BY_FIELDS, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    x = build(cls)
    assert pickle.loads(pickle.dumps(x)) == x


def test_symmat_keeps_the_hash_of_its_fields():
    """SymMat computes hash((num, den)) once into _hash, a slot that is no
    field: equality, repr, pickle and copy see num and den alone."""

    s = SymMat(((2, 1), (1, 4)), 6)
    assert hash(s) == hash((s.num, s.den)) == s._hash
    assert SymMat._fields == ("num", "den") and "_hash" not in repr(s)
    for twin in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert twin == s and hash(twin) == hash(s) and twin._hash == s._hash
    with pytest.raises(AttributeError):
        s._hash = 0


def test_image_table_is_not_a_field():
    """Equal lattice maps on one carrier share its image table for their
    (matrix, den), which is no part of their value; a pickled copy takes
    the table of its own, unpickled, carrier."""

    z = LatticeConeModel(2, ((1, 0), (0, 1)), Vec((3, 7)))
    used, equal = Endomorphism(z, ((1, 0), (0, 0))), Endomorphism(z, ((1, 0), (0, 0)))
    other = Endomorphism(z, ((0, 0), (0, 1)))
    assert used.apply(Vec((1, 1))) == Vec((1, 0))
    assert equal._images is used._images and used._images == {(1, 1): Vec((1, 0))}
    assert used._images is z._tables[(used.matrix, used.den)]
    assert other._images is not used._images and not other._images
    assert used == equal and hash(used) == hash(equal) and repr(used) == repr(equal)
    copy = pickle.loads(pickle.dumps(used))
    assert copy == used and hash(copy) == hash(used)
    assert copy.carrier == z and copy.carrier is not z
    assert copy._images is copy.carrier._tables[(used.matrix, used.den)] and copy._images == {}
    with pytest.raises(AttributeError):
        used._images = {}
    del used, equal, copy
    assert Endomorphism(z, ((1, 0), (0, 0)))._images == {(1, 1): Vec((1, 0))}


def test_jsonable_shapes():
    clause = {"name": "law", "status": "pass", "checked": 3, "witness": None, "note": ""}
    assert jsonable(PASSED) == clause
    listed = Clause("law", "pass", 3, items=[Vec((1, 0))])
    assert jsonable(listed) == {**clause, "items": [[1, 0]]}
    assert jsonable(Report("t", [PASSED])) == {"title": "t", "clauses": [clause]}
    assert jsonable(build(MackeyTriple)) == {"e1": [1, 0], "f1": [0, 1], "d": [0, 0]}
    assert jsonable(build(RetractionCertificate, 2)) == {
        "endo": {"matrix": [[1, 0], [0, 1]]},
        "focus": [1, 1],
        "valid": True,
        "checks": {"law": True},
    }
    assert jsonable(build(CompatReport)) == {
        "p": [1, 0],
        "q": [0, 1],
        "conditions": {"commute": True},
        "compatible": True,
        "agree": True,
    }

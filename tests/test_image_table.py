"""The image table of lattice maps.

An Endomorphism of a lattice carrier keeps the image of each element it
has mapped, in a table on its carrier that every equal map shares, so each
product of a distinct map and an element is computed once.  These tests
pin that the table changes no image and no error, that matrix maps keep
none, that a lattice report makes each product once, and that a report's
maps and tables are freed when it returns.  That the table is no part of a
map's value is pinned in test_value_types.
"""

from __future__ import annotations

import gc
import json
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from compbase import (
    Endomorphism,
    LatticeConeModel,
    MembershipError,
    Vec,
    linalg,
    load_model,
)
from compbase import compatibility, models
from compbase.cli import main
from conftest import LATTICE, MODELS_DIR, retraction_base, seeded_cones, signed_box

HEIGHT = 2


def plain(m: Endomorphism, g: Vec):
    """m applied to g by the schoolbook product, or ValueError when the
    image leaves the lattice."""

    num = [sum(a * x for a, x in zip(row, g.coords)) for row in m.matrix]
    if any(x % m.den for x in num):
        return ValueError
    return Vec(tuple(x // m.den for x in num))


def applied(m: Endomorphism, g: Vec):
    try:
        return m.apply(g)
    except ValueError:
        return ValueError


def _base(source):
    """The declared base of a bundled model, or the base of one retraction
    per focus of a seeded cone."""

    if isinstance(source, str):
        return load_model(MODELS_DIR / f"{source}.json")[1]
    return retraction_base(*source)


def _maps(base):
    """Every declared map, substructure projector, composed map and map
    composed with a substructure's projector, as Substructure.restrict reads it."""

    maps = list(base.family.values())
    maps += [base.composed(p, q) for p in base.foci for q in base.foci]
    for v in base.foci:
        for build in (compatibility.image_substructure, compatibility.commutant_substructure):
            try:
                sub = build(base, v)
            except MembershipError:  # the complement of v escapes the base
                continue
            maps.append(sub.projector)
            maps += [models.compose(base.j(p), sub.projector) for p in base.foci]
    return maps


@settings(max_examples=25, deadline=None)
@given(source=st.one_of(st.sampled_from(LATTICE), seeded_cones()))
@example(source="m1")
@example(source="m2")
@example(source="m5")
def test_image_table_matches_the_plain_product(source):
    base = _base(source)
    model = base.structure
    box = signed_box(model, HEIGHT)
    maps = _maps(base)
    # half of each map leaves the lattice wherever its image is odd
    halves = [Endomorphism(model, m.matrix, 2 * m.den) for m in base.family.values()]
    for m in maps + halves:
        for g in box:
            want = plain(m, g)
            assert applied(m, g) == want
            assert applied(m, g) == want
            assert (g.coords in m._images) == (want is not ValueError)


def test_map_off_the_lattice_raises_on_every_call():
    model = LatticeConeModel(1, ((1,),), Vec((2,)))
    halve = Endomorphism(model, ((1,),), den=2)
    for _ in range(3):
        with pytest.raises(ValueError, match="integer lattice"):
            halve.apply(Vec((1,)))
    assert halve.apply(Vec((2,))) == Vec((1,))
    assert halve._images == {(2,): Vec((1,))}


def test_matrix_maps_keep_no_table(capsys):
    code = main(["theorems", str(MODELS_DIR / "m3.json"), "--samples", "64", "--seed", "0"])
    capsys.readouterr()
    assert code == 0
    maps = [o for o in gc.get_objects() if type(o) is Endomorphism]
    matrix = [m for m in maps if not m.carrier.finite]
    assert matrix and all(m._images is None for m in matrix)
    assert all(isinstance(m._images, dict) for m in maps if m.carrier.finite)


def test_a_report_leaves_no_cyclic_garbage(capsys):
    """The bases, maps and image tables of a report are freed by reference
    counting when it returns: a restricted base shares its parent's _pairs,
    which holds no base, so no cycle waits for the collector."""

    gc.collect()
    gc.disable()
    try:
        before = sum(type(o) is Endomorphism for o in gc.get_objects())
        assert main(["report", str(MODELS_DIR / "m1.json"), "--seed", "0"]) == 0
        after = sum(type(o) is Endomorphism for o in gc.get_objects())
    finally:
        gc.enable()
    capsys.readouterr()
    assert after == before


def _standard_cone(unit) -> dict:
    """Z^2 under the standard cone, based on the two coordinate projections."""

    def diag(a, b):
        return [[a, 0], [0, b]]

    return {
        "kind": "lattice_cone",
        "dim": 2,
        "cone_rows": diag(1, 1),
        "unit": list(unit),
        "compressions": [
            {"focus": [a * unit[0], b * unit[1]], "matrix": diag(a, b)}
            for a in (0, 1)
            for b in (0, 1)
        ],
    }


def test_lattice_report_makes_each_product_once(monkeypatch, tmp_path, capsys):
    """report on Z^2 with unit (5, 3), the benchmark's z2-std-5x3: every
    mat_vec call is the first product of a map's value (matrix, den) with
    an element met by apply, or one of the retraction search's own
    candidate products.  Equal maps that are distinct objects, such as the
    declared J_u and each commutant projector J_v + J_{u-v} on this
    product cone, share one table."""

    path = tmp_path / "z2-std-5x3.json"
    path.write_text(json.dumps(_standard_cone((5, 3))))
    counts = Counter()
    pairs = set()  # (matrix, den, element): equal maps share one table
    depth = [0]
    real_mat_vec, real_apply = linalg.mat_vec, Endomorphism.apply

    def mat_vec(m, v):
        counts["mat_vec"] += 1
        counts["search"] += not depth[0]
        return real_mat_vec(m, v)

    def apply(self, g):
        pairs.add((self.matrix, self.den, g))
        depth[0] += 1
        try:
            return real_apply(self, g)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(linalg, "mat_vec", mat_vec)
    monkeypatch.setattr(Endomorphism, "apply", apply)
    assert main(["report", str(path), "--seed", "0"]) == 0
    capsys.readouterr()
    # the laws over all of G read a few cone generators per map, and the
    # interval sweeps most of the products
    assert len(pairs) > 50
    assert counts["mat_vec"] <= len(pairs) + counts["search"]


def test_a_table_is_freed_with_its_model(monkeypatch, capsys):
    """An image table lives on its carrier: a map built after an equal map
    is gone reads the same table, and once the model and its maps are gone
    nothing holds it.  A report's tables are freed, by reference counting,
    when it returns."""

    model = LatticeConeModel(2, ((1, 0), (0, 1)), Vec((5, 2)))
    first = Endomorphism(model, ((0, 1), (1, 0)))
    first.apply(Vec((1, 2)))
    table = first._images
    del first
    second = Endomorphism(model, ((0, 1), (1, 0)))
    assert second._images is table and table == {(1, 2): Vec((2, 1))}
    del second, model
    assert sys.getrefcount(table) == 2  # `table` and getrefcount's argument

    tables = {}  # id -> every distinct table the report's maps take
    real_init = Endomorphism.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if self._images is not None:
            tables.setdefault(id(self._images), self._images)

    monkeypatch.setattr(Endomorphism, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        assert main(["report", str(MODELS_DIR / "m5.json"), "--seed", "0"]) == 0
        # one reference from `tables`, one from getrefcount's argument
        held = [sys.getrefcount(tables[key]) - 2 for key in tables]
    finally:
        gc.enable()
    capsys.readouterr()
    assert tables and held == [0] * len(tables)

"""The lattice order memo and the premise-first sweeps.

LatticeConeModel.leq answers each (a, b) once while it stays in the
model's memo (_order, at most models.ORDER_CAP entries, cleared when full),
and every substructure reads its carrier's memo.  These tests hold the
memo to the cone test of b - a, before and after it fills, and hold the
sweeps that now enumerate only the cases their order premise admits (the
greatest-lower-bound test of the meet, Mackey triples over the interval
and the composition law) to the full-product sweeps they replaced
(conftest), status, checked, witness and items alike.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from compbase import (
    LatticeConeModel,
    Vec,
    base_from_family,
    commutant_substructure,
    image_substructure,
    is_effect,
    load_model,
    mackey_decompositions,
    zero_endo,
)
from compbase import compatibility, compression, models
from compbase.cli import main
from compbase.models import ORDER_CAP, _in_cone
from conftest import (
    FIXTURES_DIR,
    LATTICE,
    LATTICE_FIXTURES,
    MODELS_DIR,
    corner_base,
    corner_model,
    full_composition_clause,
    full_greatest_lower_bound,
    full_mackey_triples,
    retraction_base,
    seeded_cones,
    with_restricted_bases,
)


def _model(source):
    """A fresh model (no other test fills its memo): a bundled name or a
    seeded (rows, unit)."""
    if isinstance(source, str):
        return load_model(MODELS_DIR / f"{source}.json")[0]
    rows, unit = source
    return LatticeConeModel(2, tuple(map(tuple, rows)), Vec(unit))


def _cone_test(model, a, b) -> bool:
    return _in_cone(model.cone_rows, tuple(y - x for x, y in zip(a.coords, b.coords)))


@settings(max_examples=25, deadline=None)
@given(source=st.one_of(st.sampled_from(LATTICE), seeded_cones()), data=st.data())
@example(source="m5", data=None)
def test_memoized_order_is_the_cone_test(source, data):
    """leq equals the cone test of b - a on interval points and on points
    outside it, negative coordinates included, before the memo is full, while
    it is cleared, and after."""

    model = _model(source)
    dim = model.dim
    coords = st.tuples(*[st.integers(-9, 9)] * dim)
    drawn = data.draw(st.lists(coords, min_size=1, max_size=8)) if data else [(-3,) * dim]
    points = list(model.interval()) + [Vec(c) for c in drawn]

    def check_all():
        for a in points:
            for b in points:
                assert model.leq(a, b) == _cone_test(model, a, b), (a, b)
                assert len(model._order) <= ORDER_CAP

    check_all()
    check_all()  # now read from the memo
    # distinct pairs fill the memo past its cap; each answer still holds
    sizes = []
    zero = model.zero
    for k in range(-ORDER_CAP // 2 - 8, ORDER_CAP // 2 + 8):
        g = Vec((k,) + (-k,) * (dim - 1))
        assert model.leq(zero, g) == _cone_test(model, zero, g)
        sizes.append(len(model._order))
    assert max(sizes) == ORDER_CAP and min(sizes[sizes.index(ORDER_CAP) + 1 :]) < ORDER_CAP
    check_all()  # after a clear


def test_substructures_read_their_carriers_memo():
    model, base = load_model(MODELS_DIR / "m1.json")
    sub = image_substructure(base, base.foci[-1])
    a, b = Vec((-2, 5)), Vec((3, 5))
    model._order.clear()
    assert sub.leq(a, b)
    assert model._order == {(a.coords, b.coords): True}
    assert not hasattr(sub, "_order")


def test_order_rejects_mixed_dimensions():
    model = _model("m1")
    with pytest.raises(ValueError, match="dimensions differ"):
        model.leq(Vec((0, 0)), Vec((0, 0, 0)))
    assert not model._order


# ---------------------------------------------------------------------------
# premise-first sweeps against the full products


def _fields(clause):
    return clause.status, clause.checked, clause.witness, clause.items, clause.note


def assert_sweeps_match(base):
    for b in with_restricted_bases(base):
        structure = b.structure
        assert _fields(compression._composition_clause(b)) == _fields(
            full_composition_clause(b)
        )
        for p in b.foci:
            for q in b.foci:
                for r in {p, q, b.j(p).apply(q), structure.zero}:
                    assert compatibility._greatest_lower_bound(
                        structure, p, q, r
                    ) == full_greatest_lower_bound(structure, p, q, r), (p, q, r)
    structure, interval = base.structure, base.structure.interval()
    effects = [p for p in base.foci if is_effect(structure, p)]
    for e in effects:
        for f in interval:
            for pair in ((e, f), (f, e)):
                want = full_mackey_triples(structure, *pair)
                assert mackey_decompositions(structure, *pair) == want, pair


@pytest.mark.parametrize("name", LATTICE)
def test_sweeps_match_the_full_products_on_bundled_models(name):
    assert_sweeps_match(load_model(MODELS_DIR / f"{name}.json")[1])


@pytest.mark.parametrize("name", LATTICE_FIXTURES)
def test_sweeps_match_the_full_products_on_fixtures(name):
    assert_sweeps_match(load_model(FIXTURES_DIR / f"{name}.json")[1])


def test_sweeps_match_the_full_products_on_a_z3_grid():
    assert_sweeps_match(corner_base((3, 3, 3)))


@settings(max_examples=15, deadline=None)
@given(cone=seeded_cones())
def test_sweeps_match_the_full_products_on_seeded_cones(cone):
    assert_sweeps_match(retraction_base(*cone))


def test_failing_sweeps_keep_their_witness_and_count():
    """Z^2 under the standard cone, unit (2, 2), with the foci 0, (1, 1)
    and u, each carrying the zero map: (1, 0) + (1, 0) is defined but not
    below (1, 1), so omp_principal fails, now on the premise that breaks
    it (the zero map's focus is not (1, 1)), as the commutant's interval
    characterization does on the fixtures.  The composition law's
    premise-first sweep stops at the full product's case after the same
    count on the fixtures that fail it (assert_sweeps_match there)."""

    model = LatticeConeModel(2, ((1, 0), (0, 1)), Vec((2, 2)))
    foci = (Vec((0, 0)), Vec((1, 1)), Vec((2, 2)))
    base = base_from_family(model, [(f, zero_endo(model)) for f in foci])
    assert_sweeps_match(base)
    principal = compatibility._omp_principal(base, 0, None)
    assert principal.witness == {"p": Vec((1, 1)), "premise": "declared_focus_matches"}
    failed = {c.name for c in (principal, compression._composition_clause(base)) if not c.ok}
    for name in ("corrupt_focus_outside_interval", "corrupt_swapped_foci"):
        fixture = load_model(FIXTURES_DIR / f"{name}.json")[1]
        failed.add(compression._composition_clause(fixture).name)
        for v in fixture.foci:
            clause = compatibility._interval_characterization_clause(
                fixture, commutant_substructure(fixture, v)
            )
            failed.update([clause.name] if not clause.ok else [])
    assert failed == {"omp_principal", "composition_law", "interval_characterization"}


def test_order_memo_stays_within_its_cap_on_a_z3_grid(monkeypatch, tmp_path, capsys):
    """report on Z^3 with unit (4, 4, 4) fills the memo to its cap, clears
    it, and never holds more."""

    sizes = []
    real = models.LatticeConeModel.leq

    def tracked(self, a, b):
        out = real(self, a, b)
        sizes.append(len(self._order))
        return out

    monkeypatch.setattr(models.LatticeConeModel, "leq", tracked)
    path = tmp_path / "z3-444.json"
    path.write_text(json.dumps(corner_model((4, 4, 4))))
    assert main(["report", str(path), "--samples", "8", "--seed", "0"]) == 0
    capsys.readouterr()
    assert max(sizes) == ORDER_CAP
    assert any(b < a for a, b in zip(sizes, sizes[1:]))

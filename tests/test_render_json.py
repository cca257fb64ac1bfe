"""render_json writes the bytes of the stdlib encoder on the plain copy of a
document, in one walk that builds no plain copy."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from compbase import Clause, Report, SymMat, Vec, cli, reporting, render_json
from compbase.compatibility import CompatReport
from compbase.effect_algebra import MackeyTriple
from compbase.reporting import CERTIFIED, FAIL, PASS
from conftest import MODELS_DIR, stdlib_json

ODD_TEXT = ('"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800", "\udfff", "\U0001f600")
texts = st.text(st.characters(exclude_categories=())) | st.sampled_from(ODD_TEXT)
ints = st.integers() | st.sampled_from((2**100, -(2**100) - 1, -1, 0, 1))
vecs = st.lists(st.integers(-9, 9), min_size=1, max_size=3).map(lambda c: Vec(tuple(c)))


@st.composite
def symmats(draw):
    n = draw(st.integers(1, 3))
    upper = {(i, j): draw(st.fractions(max_denominator=12)) for i in range(n) for j in range(i, n)}
    return SymMat.from_rows([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])


leaves = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    texts,
    st.fractions(),
    vecs,
    symmats(),
    st.frozensets(st.one_of(ints, texts, vecs, st.fractions()), max_size=4),
)
keys = st.one_of(texts, st.integers(-3, 3), st.booleans(), st.none(), st.fractions(max_denominator=3), vecs)


def _containers(children):
    items = st.lists(children, max_size=4)
    clauses = st.builds(
        Clause, texts, st.sampled_from((PASS, FAIL, CERTIFIED)), ints, children, texts,
        st.none() | items,
    )
    return st.one_of(
        items,
        items.map(tuple),
        st.dictionaries(keys, children, max_size=4),
        clauses,
        st.builds(Report, texts, st.lists(clauses, max_size=3)),
        st.builds(CompatReport, vecs, vecs, st.lists(st.tuples(texts, st.booleans())).map(tuple)),
        st.builds(MackeyTriple, vecs, vecs, vecs),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(leaves, _containers, max_leaves=30))
@example({1: "int", "1": "str", True: "bool", "True": "str", None: 0, "None": 1})
@example({"": [], "b": (), "a": {}, "c": frozenset(), "d": [True, 1, False, 0]})
@example([Fraction(-7, 3), Fraction(4, 2), SymMat.from_rows([[Fraction(1, 2), 0], [0, 1]])])
def test_render_json_matches_the_stdlib_encoder(x):
    assert render_json(x) == stdlib_json(x)


@pytest.mark.parametrize("x", [1.5, {"a": [0.0]}, object(), [Clause("c", PASS, witness=2.5)]])
def test_unserializable_values_are_refused(x):
    with pytest.raises(TypeError, match="cannot serialize"):
        render_json(x)


def test_a_lattice_report_is_written_without_a_plain_copy(monkeypatch):
    """The writer walks the document itself: jsonable is never called."""
    args = cli._build_parser().parse_args(
        ["report", str(MODELS_DIR / "m1.json"), "--samples", "8", "--seed", "0"]
    )
    doc = cli._run(args, cli._config(args))
    want = stdlib_json(doc)
    calls = []
    plain = reporting.jsonable
    monkeypatch.setattr(reporting, "jsonable", lambda x: calls.append(x) or plain(x))
    assert render_json(doc) == want
    assert calls == []


@given(st.integers() | st.sampled_from((0, 2**100, -(2**100))), st.integers(1, 10**6))
def test_ratio_is_the_shape_of_the_fraction(num, den):
    """reporting.ratio, which writes SymMat and map entries, against the
    lowest terms Fraction finds: its own oracle, which _shape does not read."""
    f = Fraction(num, den)
    assert reporting.ratio(num, den) == (f.numerator if f.denominator == 1 else str(f))


def test_a_matrix_report_builds_no_fraction_per_entry(monkeypatch):
    """SymMats render from num and den: SymMat.rows is never read."""
    args = cli._build_parser().parse_args(
        ["report", str(MODELS_DIR / "m3.json"), "--samples", "8", "--seed", "0"]
    )
    doc = cli._run(args, cli._config(args))
    want = stdlib_json(doc)

    def rows(self):
        raise AssertionError("SymMat.rows read while rendering")

    monkeypatch.setattr(SymMat, "rows", property(rows))
    assert render_json(doc) == want


def test_a_set_renders_sorted_whatever_its_insertion_order():
    """A literal pin, independent of _shape: the two insertion orders
    iterate differently, and neither in the sorted order."""
    items = [-1, Vec((2, -1)), 0, Vec((5, 5)), 7]
    want = "[\n  -1,\n  0,\n  7,\n  [\n    2,\n    -1\n  ],\n  [\n    5,\n    5\n  ]\n]\n"
    sets = frozenset(items), frozenset(reversed(items))
    assert list(sets[0]) != list(sets[1])
    for s in sets:
        assert render_json(s) == want

"""Model file parsing: accepted schema and every rejection path."""

import json
import sys

import pytest

from compbase import LatticeConeModel, MatrixModel, ModelFormatError, load_model
from conftest import BUNDLED, FIXTURES_DIR, LATTICE, MATRIX, MODELS_DIR


M1_TEXT = (MODELS_DIR / "m1.json").read_text()

# the bytes of model files that cannot be read as UTF-8 JSON
MALFORMED = {
    # m1 with a byte that starts no UTF-8 sequence
    "not_utf8": M1_TEXT.replace('"lattice_cone"', '"lattice_cone\xff"').encode("latin-1"),
    # arrays nested deeper than the recursion limit
    "too_deep": b"[" * 100_000 + b"]" * 100_000,
    # m1 with a unit entry of 5000 digits, past the interpreter's default
    # limit of 4300 digits for converting a decimal string to an int
    "long_integer": M1_TEXT.replace('"unit": [1, 1]', '"unit": [' + "1" * 5000 + ", 1]").encode(),
}


def write(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def m1_doc():
    return json.loads((MODELS_DIR / "m1.json").read_text())


@pytest.fixture()
def m3_doc():
    return json.loads((MODELS_DIR / "m3.json").read_text())


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_files_load(name):
    model, base = load_model(MODELS_DIR / f"{name}.json")
    expected = LatticeConeModel if name in LATTICE else MatrixModel
    assert isinstance(model, expected)
    assert base.foci is not None and len(base.foci) >= 2


def test_fixture_files_parse_cleanly():
    # Fixtures encode mathematical defects, not format defects; the parser
    # accepts them and the validators are what flag them.
    for path in sorted(FIXTURES_DIR.glob("*.json")):
        model, base = load_model(path)
        assert base.foci


def test_missing_file():
    with pytest.raises(ModelFormatError):
        load_model(MODELS_DIR / "no_such_model.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(path)


def write_malformed(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(MALFORMED[name])
    return path


def test_file_that_is_not_utf8(tmp_path):
    with pytest.raises(ModelFormatError, match="utf-8"):
        load_model(write_malformed(tmp_path, "not_utf8"))


def test_json_nested_past_the_recursion_limit(tmp_path):
    with pytest.raises(ModelFormatError, match="invalid JSON"):
        load_model(write_malformed(tmp_path, "too_deep"))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_integer_literal_past_the_digit_limit(tmp_path):
    path = write_malformed(tmp_path, "long_integer")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            load_model(path)
    finally:
        sys.set_int_max_str_digits(limit)


def test_unknown_kind(tmp_path, m1_doc):
    m1_doc["kind"] = "hilbert"
    with pytest.raises(ModelFormatError, match="kind"):
        load_model(write(tmp_path, m1_doc))


def test_unknown_key_rejected(tmp_path, m1_doc):
    m1_doc["extra"] = 1
    with pytest.raises(ModelFormatError, match="extra"):
        load_model(write(tmp_path, m1_doc))


def test_missing_key_rejected(tmp_path, m1_doc):
    del m1_doc["unit"]
    with pytest.raises(ModelFormatError, match="unit"):
        load_model(write(tmp_path, m1_doc))


def test_non_integer_lattice_entry(tmp_path, m1_doc):
    m1_doc["unit"] = [1, "1/2"]
    with pytest.raises(ModelFormatError):
        load_model(write(tmp_path, m1_doc))


def test_boolean_is_not_an_integer(tmp_path, m1_doc):
    m1_doc["unit"] = [1, True]
    with pytest.raises(ModelFormatError):
        load_model(write(tmp_path, m1_doc))


def test_wrong_row_length(tmp_path, m1_doc):
    m1_doc["cone_rows"] = [[1, 0, 0], [0, 1]]
    with pytest.raises(ModelFormatError):
        load_model(write(tmp_path, m1_doc))


def test_duplicate_focus_rejected(tmp_path, m1_doc):
    m1_doc["compressions"].append(dict(m1_doc["compressions"][0]))
    with pytest.raises(ModelFormatError, match="duplicate"):
        load_model(write(tmp_path, m1_doc))


def test_float_entry_rejected(tmp_path, m3_doc):
    m3_doc["projections"][3][0][0] = 0.5
    with pytest.raises(ModelFormatError, match="float"):
        load_model(write(tmp_path, m3_doc))


def test_bad_rational_string(tmp_path, m3_doc):
    m3_doc["projections"][3][0][0] = "one half"
    with pytest.raises(ModelFormatError):
        load_model(write(tmp_path, m3_doc))


@pytest.mark.parametrize("text", ["0.5", "1e-3", "1_000", "1/-2", " 1", "\u0661"])
def test_rational_grammar_is_integers_and_fractions(tmp_path, m3_doc, text):
    """Only integers and "a/b" strings of integers; Fraction() would take these."""
    m3_doc["projections"][3][0][0] = text
    with pytest.raises(ModelFormatError, match="bad rational"):
        load_model(write(tmp_path, m3_doc))


def test_asymmetric_projection_rejected(tmp_path, m3_doc):
    m3_doc["projections"][1] = [[1, 1], [0, 0]]
    with pytest.raises(ModelFormatError):
        load_model(write(tmp_path, m3_doc))


def test_duplicate_projection_rejected(tmp_path, m3_doc):
    m3_doc["projections"].append(m3_doc["projections"][1])
    with pytest.raises(ModelFormatError, match="duplicate"):
        load_model(write(tmp_path, m3_doc))


def test_loaded_matrix_entries_are_exact(m3_doc, bundled):
    _, base = bundled["m3"]
    halves = [p for p in base.foci if any(x.denominator == 2 for row in p.rows for x in row)]
    assert len(halves) == 2

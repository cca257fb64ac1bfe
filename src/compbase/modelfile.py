"""Loading model definition files.

Two kinds of file, both plain JSON with a closed schema (unknown keys are
rejected so a typo cannot silently drop a law from the sweep):

lattice_cone::

    {"kind": "lattice_cone",
     "dim": 2,
     "cone_rows": [[1, 0], [0, 1]],
     "unit": [1, 1],
     "compressions": [{"focus": [1, 0], "matrix": [[1, 0], [0, 0]]}, ...]}

All lattice numbers are integers.  Each compression entry pairs a declared
focus with the integer matrix of its endomorphism (acting on column
vectors); the declaration is taken at face value here and checked against
the laws by the validators, so a wrong matrix shows up as a failed clause,
not a parse error.

matrix::

    {"kind": "matrix",
     "dim": 2,
     "projections": [[[1, 0], [0, 0]],
                     [["1/2", "1/2"], ["1/2", "1/2"]], ...]}

Matrix entries are integers or rationals written as "a/b" strings of
integers (elements.parse_rational; no decimals, exponents or digit
separators).  Floats are rejected outright: the whole point of the package is exact arithmetic,
and 0.5 is not 1/2 once it has been through binary floating point.
Symmetry is a shape requirement enforced at load time; idempotence of the
listed projections is mathematics and is left to the validators.
"""

from __future__ import annotations

import json
from pathlib import Path

from .compression import CompressionBase, base_from_family, base_from_projections
from .elements import SymMat, Vec, parse_rational
from .models import LatticeConeModel, MatrixModel, endo_from_int_matrix


class ModelFormatError(ValueError):
    """A model file failed to parse against the schema."""


_TOP_KEYS = {
    "lattice_cone": {"kind", "dim", "cone_rows", "unit", "compressions"},
    "matrix": {"kind", "dim", "projections"},
}


def _fail(where: str, message: str) -> "ModelFormatError":
    return ModelFormatError(f"{where}: {message}")


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(where, f"expected an integer, got {value!r}")
    return value


def _int_vector(value, dim: int, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or len(value) != dim:
        raise _fail(where, f"expected a list of {dim} integers")
    return tuple(_int(v, f"{where}[{i}]") for i, v in enumerate(value))


def _int_matrix(value, dim: int, where: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list) or len(value) != dim:
        raise _fail(where, f"expected {dim} rows")
    return tuple(_int_vector(row, dim, f"{where}[{i}]") for i, row in enumerate(value))


def _rational(value, where: str):
    if isinstance(value, bool):
        raise _fail(where, f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise _fail(where, 'floats are not exact; write rationals as "a/b" strings')
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise _fail(where, f"bad rational {value!r} ({exc})") from None
    raise _fail(where, f"expected an integer or an \"a/b\" string, got {value!r}")


def _rational_matrix(value, dim: int, where: str) -> SymMat:
    if not isinstance(value, list) or len(value) != dim:
        raise _fail(where, f"expected {dim} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise _fail(f"{where}[{i}]", f"expected a list of {dim} entries")
        rows.append(
            tuple(_rational(v, f"{where}[{i}][{j}]") for j, v in enumerate(row))
        )
    try:
        return SymMat.from_rows(rows)
    except ValueError as exc:
        raise _fail(where, str(exc)) from None


def _check_keys(doc: dict, allowed: set, where: str) -> None:
    extra = set(doc) - allowed
    if extra:
        raise _fail(where, f"unknown keys {sorted(extra)}")
    missing = allowed - set(doc)
    if missing:
        raise _fail(where, f"missing keys {sorted(missing)}")


def _load_lattice(doc: dict) -> tuple[LatticeConeModel, CompressionBase]:
    dim = _int(doc["dim"], "dim")
    if dim < 1:
        raise _fail("dim", "must be at least 1")
    if not isinstance(doc["cone_rows"], list) or not doc["cone_rows"]:
        raise _fail("cone_rows", "expected a nonempty list of rows")
    rows = tuple(
        _int_vector(row, dim, f"cone_rows[{i}]")
        for i, row in enumerate(doc["cone_rows"])
    )
    unit = Vec(_int_vector(doc["unit"], dim, "unit"))
    model = LatticeConeModel(dim=dim, cone_rows=rows, unit=unit)

    entries = doc["compressions"]
    if not isinstance(entries, list) or not entries:
        raise _fail("compressions", "expected a nonempty list")
    pairs = []
    seen = set()
    for i, entry in enumerate(entries):
        where = f"compressions[{i}]"
        if not isinstance(entry, dict):
            raise _fail(where, "expected an object")
        _check_keys(entry, {"focus", "matrix"}, where)
        focus = Vec(_int_vector(entry["focus"], dim, f"{where}.focus"))
        if focus in seen:
            raise _fail(f"{where}.focus", f"duplicate focus {list(focus.coords)}")
        seen.add(focus)
        matrix = _int_matrix(entry["matrix"], dim, f"{where}.matrix")
        pairs.append((focus, endo_from_int_matrix(model, matrix)))
    return model, base_from_family(model, pairs)


def _load_matrix(doc: dict) -> tuple[MatrixModel, CompressionBase]:
    dim = _int(doc["dim"], "dim")
    if dim < 1:
        raise _fail("dim", "must be at least 1")
    model = MatrixModel(dim=dim)

    entries = doc["projections"]
    if not isinstance(entries, list) or not entries:
        raise _fail("projections", "expected a nonempty list")
    projections = []
    seen = set()
    for i, entry in enumerate(entries):
        p = _rational_matrix(entry, dim, f"projections[{i}]")
        if p in seen:
            raise _fail(f"projections[{i}]", "duplicate projection")
        seen.add(p)
        projections.append(p)
    return model, base_from_projections(model, projections)


def load_model(path) -> tuple[object, CompressionBase]:
    """Parse a model file into (structure, declared base).

    Raises ModelFormatError with the offending location for anything the
    schema forbids, and for a file that cannot be read as UTF-8 JSON: bytes
    that are not UTF-8, nesting deeper than the recursion limit, or an
    integer literal longer than the interpreter converts (json.loads
    raises ValueError there, not JSONDecodeError).  Mathematical defects (a
    matrix that is not idempotent, a family violating the composition law)
    load fine and are the validators' business.
    """

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    kind = doc.get("kind")
    if kind not in _TOP_KEYS:
        raise ModelFormatError(
            f"{path}: kind must be one of {sorted(_TOP_KEYS)}, got {kind!r}"
        )
    _check_keys(doc, _TOP_KEYS[kind], str(path))
    try:
        if kind == "lattice_cone":
            return _load_lattice(doc)
        return _load_matrix(doc)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None

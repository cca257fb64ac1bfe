"""Structured check results, the law helper, and JSON / table renderings.

A Clause is the one verdict type: a named pass / fail / certified status
with the number of cases checked and a counterexample witness on failure.
Single checks return one Clause; every verification entry point returns a
Report, an ordered list of them.  Most clauses come from law(), which
states one law over one universe of cases; derived() states one law that
follows from exactly checked premises.  Reports serialize to JSON with
sorted keys and no volatile content, so identical configurations produce
byte-identical output.  render_json writes that text in one walk, with the
bytes of the stdlib encoder on jsonable's plain copy (the tests' oracle);
both read each type's JSON shape from _shape.

Clause and Report are mutable records (value.Record) that compare by
fields.  Each gives its JSON object through a jsonable() method, as every
serialized package class does: a Clause omits items when it has none.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Any, Callable, Iterable, Optional

from .elements import SymMat, Vec
from .value import Record

PASS = "pass"
FAIL = "fail"
CERTIFIED = "certified"


class Clause(Record):
    __slots__ = ("name", "status", "checked", "witness", "note", "items")

    def __init__(
        self,
        name: str,
        status: str,
        checked: int = 0,
        witness: Any = None,
        note: str = "",
        items: Any = None,
    ) -> None:
        self.name = name
        self.status = status
        self.checked = checked
        self.witness = witness
        self.note = note
        self.items = items

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def jsonable(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "checked": self.checked,
            "witness": self.witness,
            "note": self.note,
        }
        if self.items is not None:
            out["items"] = self.items
        return out


class Sample:
    """A sampled universe: n cases, each made by draw() only when reached.

    Iterate it once; a second pass would draw fresh cases.
    """

    def __init__(self, n: int, draw: Callable[[], Any]):
        self.n = n
        self.draw = draw

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return (self.draw() for _ in range(self.n))



def law(
    name: str,
    universe: Iterable,
    holds: Callable[[Any], Any],
    premise: Optional[Callable[[Any], bool]] = None,
    *,
    witness: Any = None,
    exact: Optional[bool] = None,
    checked: Optional[int] = None,
    tally: bool = False,
    note: str = "",
) -> Clause:
    """State one law over one universe of cases and report it as a clause.

    A universe is sampled when it is a Sample, drawing from a seeded
    stream, and exhaustive otherwise (a tuple, list, generator or
    itertools product over a finite set: the interval, a positive box, the
    declared foci or their pairs and triples).  Cases are taken one at a
    time and the search stops at the first witness, so a Sample draws
    nothing after it and a stream it shares with later laws is left where
    the search stopped.

    Cases that fail the premise are skipped and not counted.  holds(case)
    answers True, False, or the witness itself (for laws that can fail in
    more than one way).  On False the witness is made from the case: the
    case itself by default, {witness: case} for a key, dict(zip(witness,
    case)) for a tuple of keys, or witness(case) for a callable.

    The status is fail when a witness turns up, else pass on an exhaustive
    universe and certified on a sampled one; exact overrides that choice.
    checked is the budget searched: the universe's length when it has one
    and no premise filters it, else (or with tally) the cases that met the
    premise up to and including the witness; a fixed count overrides both.
    """

    if exact is None:
        exact = not isinstance(universe, Sample)
    seen = 0
    failed = False
    found = None
    for case in universe:
        if premise is not None and not premise(case):
            continue
        seen += 1
        verdict = holds(case)
        if verdict is True:
            continue
        failed = True
        if verdict is not False:
            found = verdict
        elif callable(witness):
            found = witness(case)
        elif isinstance(witness, str):
            found = {witness: case}
        elif isinstance(witness, tuple):
            found = dict(zip(witness, case))
        else:
            found = case
        break
    if checked is None:
        sized = premise is None and not tally and hasattr(universe, "__len__")
        checked = len(universe) if sized else seen
    status = FAIL if failed else (PASS if exact else CERTIFIED)
    return Clause(name, status, checked=checked, witness=found, note=note)


def derived(name: str, premises: Iterable[Clause], note: str) -> Clause:
    """A law derived from exact premises: pass, or fail with the witness
    {"premise": name} of the first unmet one, which is no counterexample."""

    unmet = next((c.name for c in premises if not c.ok), None)
    if unmet is None:
        return Clause(name, PASS, note=note)
    return Clause(name, FAIL, witness={"premise": unmet}, note="not derived")


class Report(Record):
    __slots__ = ("title", "clauses")

    def __init__(self, title: str, clauses: list[Clause] | None = None) -> None:
        self.title = title
        self.clauses = [] if clauses is None else clauses

    def jsonable(self) -> dict:
        return {"title": self.title, "clauses": self.clauses}

    def add(self, clause: Clause) -> Clause:
        self.clauses.append(clause)
        return clause

    def extend(self, other: "Report") -> None:
        self.clauses.extend(other.clauses)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

    def first_failure(self) -> Clause | None:
        return next((c for c in self.clauses if not c.ok), None)


def ratio(num: int, den: int) -> int | str:
    """The JSON shape of the rational num/den, den > 0: an int when it is
    whole, else "a/b" in lowest terms."""
    g = gcd(num, den)
    return num // g if g == den else f"{num // g}/{den // g}"


def ratio_rows(num, den: int) -> tuple:
    """Integer rows over one denominator (a SymMat, a map) shaped by ratio."""
    return tuple(tuple(ratio(x, den) for x in row) for row in num)


def _shape(x: Any) -> Any:
    """One level of the JSON shape of a Vec, SymMat, record with a jsonable()
    method, Fraction or set, tested in that order (a Fraction test goes through
    the ABC machinery, the slowest); a float or any other object is refused."""
    if isinstance(x, Vec):
        return x.coords
    if isinstance(x, SymMat):
        return ratio_rows(x.num, x.den)
    method = getattr(x, "jsonable", None)
    if callable(method):
        return method()
    if isinstance(x, Fraction):
        return ratio(x.numerator, x.denominator)
    if isinstance(x, (set, frozenset)):
        return sorted(map(jsonable, x), key=repr)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def jsonable(x: Any) -> Any:
    """Map package objects onto plain JSON values, exactly (no floats)."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [jsonable(v) for v in x]
    return jsonable(_shape(x))


def render_json(data: Any) -> str:
    """json.dumps(jsonable(data), indent=2, sort_keys=True) + "\n", written
    in one walk, with no plain copy and no pure-Python indenting encoder."""
    out: list[str] = []
    _write(data, "\n", out.append)
    return "".join(out) + "\n"


def _write(x: Any, nl: str, put: Callable[[str], Any]) -> None:
    if isinstance(x, str):
        put(encode_basestring_ascii(x))
    elif x is None or x is True or x is False:
        put("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        put(int.__repr__(x))
    elif isinstance(x, dict):
        named = {str(k): v for k, v in x.items()}
        inner, sep = nl + "  ", "{"
        for k in sorted(named):
            put(sep + inner + encode_basestring_ascii(k) + ": ")
            _write(named[k], inner, put)
            sep = ","
        put(nl + "}" if named else "{}")
    elif isinstance(x, (tuple, list)):
        inner, sep = nl + "  ", "["
        for v in x:
            put(sep + inner)
            _write(v, inner, put)
            sep = ","
        put(nl + "]" if x else "[]")
    else:
        _write(_shape(x), nl, put)


def _clause_rows(report_dict: dict, prefix: str = "") -> list[tuple[str, str, str, str]]:
    rows = []
    for clause in report_dict.get("clauses", []):
        rows.append(
            (
                prefix + clause["name"],
                clause["status"],
                str(clause.get("checked", 0)),
                clause.get("note", ""),
            )
        )
    for name, section in sorted(report_dict.get("sections", {}).items()):
        if isinstance(section, dict):
            rows.extend(_clause_rows(section, prefix=f"{name}."))
    return rows


def render_columns(rows: list, ok: bool, reasons: Iterable[str] = ()) -> str:
    """Rows of strings in left-aligned columns two spaces apart, then a line
    per reason and the verdict line: the one table layout of the package."""
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]
    lines += [*reasons, "ok" if ok else "FAILED"]
    return "\n".join(lines) + "\n"


def render_table(data: Any) -> str:
    """Aligned plain-text view of a report dict: clause rows, error, first failure."""
    d = jsonable(data)
    rows = [("clause", "status", "checked", "note"), *_clause_rows(d)]
    reasons = [f"{key}: {d[key]}" for key in ("error", "first_failure") if key in d]
    return render_columns(rows, d.get("ok", True), reasons)

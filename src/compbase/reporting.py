"""Structured check results, the law helper, and JSON / table renderings.

A Clause is the one verdict type: a named pass / fail / certified status
with the number of cases checked and a counterexample witness on failure.
Single checks return one Clause; every verification entry point returns a
Report, an ordered list of them.  Most clauses come from law(), which
states one law over one universe of cases.  Reports serialize to JSON with sorted keys and no
volatile content, so identical configurations produce byte-identical output.

Clause and Report are mutable records (value.Record) that compare by
fields.  Each gives its JSON object through a jsonable() method, as every
serialized package class does: a Clause omits items when it has none.
"""

from __future__ import annotations

import json
from fractions import Fraction
from types import GeneratorType
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

    A universe is exhaustive (a tuple, list or itertools product over a
    finite set: the interval, a height box, the declared foci or their
    pairs and triples) or sampled (a Sample, or a generator, drawing from
    a seeded stream).  Cases are taken one at a time and the search stops
    at the first witness, so a sampled universe draws nothing after it and
    a stream it shares with later laws is left where the search stopped.

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
        exact = not isinstance(universe, (Sample, GeneratorType))
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


def jsonable(x: Any) -> Any:
    """Map package objects onto plain JSON values, exactly (no floats)."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, Vec):
        return list(x.coords)
    if isinstance(x, SymMat):
        return [[jsonable(v) for v in row] for row in x.rows]
    method = getattr(x, "jsonable", None)
    if callable(method):
        return jsonable(method())
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((jsonable(v) for v in x), key=repr)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def render_json(data: Any) -> str:
    return json.dumps(jsonable(data), indent=2, sort_keys=True) + "\n"


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


def render_table(data: Any) -> str:
    """Aligned plain-text view of a report dict (same content as the JSON)."""
    d = jsonable(data)
    rows = _clause_rows(d)
    header = ("clause", "status", "checked", "note")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(4)
    ]
    lines = []
    for r in [header] + rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(4)).rstrip())
    verdict = "ok" if d.get("ok", True) else "FAILED"
    lines.append(verdict)
    return "\n".join(lines) + "\n"

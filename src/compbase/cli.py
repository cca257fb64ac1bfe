"""Command line front end.

Usage::

    compbase validate MODEL
    compbase theorems MODEL
    compbase compat-table MODEL
    compbase mackey MODEL E F
    compbase substructure MODEL V {image,commutant}
    compbase retractions MODEL
    compbase report MODEL

Every command runs one pipeline: load the model file, validate the
unital group (section 00_unital_group), its compression base
(01_compression_base) only once the group holds, and only when both hold
run the command's step, which adds its sections and fields.  One
document comes out, and the exit code follows its "ok" alone: 0 when every
checked law holds.  Exit code 1 means a mathematical violation (the
document names the failing clause in "first_failure" and carries a
witness; a lattice cone that is not pointed names order_antisymmetric) or
a refused element (an element outside the unit interval, or no focus of
the declared base where one is needed: "ok" is false, "error" says why,
and there is no "first_failure").  Exit code 2 means the input could not
be used at all (missing file, schema violation, bad element syntax,
retractions on a matrix model, an --output path that cannot be written, a
lattice interval too large to enumerate).  The two are never conflated: a
corrupted family is a finding, a corrupted file is a usage error.

Output is JSON by default (sorted keys, exact rationals, no volatile
fields, so equal configurations produce byte-identical bytes), or an
aligned table with --table.  --samples and --seed (else COMPBASE_SEED,
else 0) budget the base of all projections, which only theorems and
report sample, in section 03_theorems_sampled of a matrix model; every
other section is decided exactly and reads neither.

Elements on the command line: comma-separated integers for lattice models
("1,0"), row-major comma-separated integers or "a/b" rationals for matrix
models ("1/2,1/2,1/2,1/2").  Every integer, in an element, in --seed and
--samples and in COMPBASE_SEED, is optionally signed ASCII digits, the
one grammar of elements.parse_integer and parse_rational: no "1_000", no
spaces, no digits of other scripts.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import lru_cache
from pathlib import Path

from .compatibility import (
    compat_battery,
    direct_product_report,
    substructure_report,
    theorem_report,
)
from .compression import (
    compressible_group_report,
    projection_base,
    validate_compression_base,
)
from .config import CheckConfig
from .effect_algebra import is_effect, mackey_decompositions
from .elements import SymMat, Vec, parse_integer, parse_rational
from .modelfile import ModelFormatError, load_model
from .models import NotEnumerableError, validate_unital_group
from .reporting import jsonable, render_columns, render_json, render_table

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class ElementSyntaxError(ValueError):
    """Command line text that does not parse as an element or an integer at all."""


def _parse_element(model, text: str):
    parts = [p.strip() for p in text.split(",")]
    if model.kind == "lattice_cone":
        try:
            coords = tuple(parse_integer(p) for p in parts)
        except ValueError:
            raise ElementSyntaxError(
                f"{text!r}: lattice elements are comma-separated integers"
            ) from None
        if len(coords) != model.dim:
            raise ElementSyntaxError(
                f"{text!r}: expected {model.dim} coordinates, got {len(coords)}"
            )
        return Vec(coords)
    want = model.dim * model.dim
    if len(parts) != want:
        raise ElementSyntaxError(
            f"{text!r}: expected {want} row-major entries for dim {model.dim}"
        )
    try:
        entries = [parse_rational(p) for p in parts]
        return SymMat.from_rows(
            entries[i * model.dim : (i + 1) * model.dim] for i in range(model.dim)
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ElementSyntaxError(f"{text!r}: {exc}") from None


def _theorems(args, model, base, cfg, sections: dict, fields: dict) -> None:
    sections["02_theorems"] = theorem_report(base)
    if model.kind == "matrix":
        sections["03_theorems_sampled"] = theorem_report(projection_base(model, cfg))


def _retractions(args, model, base, cfg, sections: dict, fields: dict) -> None:
    sections["04_compressible"] = compressible_group_report(model)


_FOCUS = "a focus of the declared base"


def _mackey(args, model, base, cfg, sections: dict, fields: dict) -> None:
    named = {"e": _parse_element(model, args.e), "f": _parse_element(model, args.f)}
    tests = [(lambda x: is_effect(model, x), "in the unit interval")]
    within = None
    if model.kind == "matrix":
        tests.append((base.contains_focus, _FOCUS))
        within = base.foci
    for test, what in tests:
        name = next((n for n, x in named.items() if not test(x)), None)
        if name is not None:
            fields["error"] = f"{name} is not {what}"
            return
    triples = mackey_decompositions(model, named["e"], named["f"], within=within)
    fields.update(named, compatible=bool(triples), triples=list(triples))
    fields["searched"] = "declared foci" if within is not None else "unit interval"


def _substructure(args, model, base, cfg, sections: dict, fields: dict) -> None:
    v = _parse_element(model, args.v)
    if not base.contains_focus(v):
        fields["error"] = f"v is not {_FOCUS}"
        return
    sub, rbase, sections[f"10_{args.kind}"] = substructure_report(base, v, args.kind)
    fields.update(v=v, kind=args.kind, unit=sub.unit, foci=list(rbase.foci))
    fields["interval_size"] = len(sub.interval()) if sub.finite else None


def _compat_table(args, model, base, cfg, sections: dict, fields: dict) -> None:
    fields["rows"] = [compat_battery(base, p, q) for p in base.foci for q in base.foci]
    if not all(r.agree for r in fields["rows"]):
        fields["first_failure"] = "battery_agreement"


def _report(args, model, base, cfg, sections: dict, fields: dict) -> None:
    _theorems(args, model, base, cfg, sections, fields)
    if model.kind == "lattice_cone":
        _retractions(args, model, base, cfg, sections, fields)
    for i, v in enumerate(base.foci):
        for kind in ("image", "commutant"):
            _, _, sections[f"substructure_{i:02d}_{kind}"] = substructure_report(base, v, kind)
        sections[f"product_{i:02d}"] = direct_product_report(base, v)


# Each command's step runs once the model validates.  It adds sections and
# document fields; a step that refuses its input adds "error" instead.  Only
# _theorems reads cfg, for the base of all projections it builds.
_STEPS = {
    "validate": lambda *_: None,
    "theorems": _theorems,
    "compat-table": _compat_table,
    "mackey": _mackey,
    "substructure": _substructure,
    "retractions": _retractions,
    "report": _report,
}


def _document(args, cfg: CheckConfig, sections: dict, fields: dict) -> dict:
    """The one document of a run; ok is false exactly when a clause failed,
    a step named a first failure, or a step refused its input."""
    failure = next((rep.first_failure().name for rep in sections.values() if not rep.ok), None)
    doc = {
        "command": args.command,
        "model": args.model.name,
        "config": {"samples": cfg.samples, "seed": cfg.seed},
        "sections": sections,
        **fields,
    }
    if failure is not None:
        doc["first_failure"] = failure
    doc["ok"] = "first_failure" not in doc and "error" not in doc
    return doc


def _run(args, cfg: CheckConfig) -> dict:
    """Load the model, validate the unital group, then its compression
    base once the group holds, run the command's step once both hold, and
    build the document."""
    model, base = load_model(args.model)
    if args.command == "retractions" and model.kind != "lattice_cone":
        raise NotEnumerableError("retraction enumeration requires a finite lattice model")
    sections = {"00_unital_group": validate_unital_group(model)}
    fields: dict = {}
    if sections["00_unital_group"].ok:
        sections["01_compression_base"] = validate_compression_base(base)
        if sections["01_compression_base"].ok:
            _STEPS[args.command](args, model, base, cfg, sections, fields)
    return _document(args, cfg, sections, fields)


def _render_rows(doc: dict) -> str:
    names = list(doc["rows"][0]["conditions"]) if doc["rows"] else []
    rows = [["p", "q", *names, "agree"]]
    for r in doc["rows"]:
        rows.append(
            [str(r["p"]), str(r["q"])]
            + ["1" if r["conditions"][n] else "0" for n in names]
            + ["yes" if r["agree"] else "NO"]
        )
    return render_columns(rows, doc["ok"])


# an optional sign, then digits, "," and "/": the text of an element
_ELEMENT_TOKEN = re.compile(r"[+-]?[0-9,/]+")


class _Parser(argparse.ArgumentParser):
    """Reads an element-shaped token such as "-1,1" as a positional, where
    argparse would read it as an unknown option (it only lets a plain
    negative number through)."""

    def _parse_optional(self, arg_string):
        if _ELEMENT_TOKEN.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call of main:
    parse_args leaves a parser unchanged, so every later call reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    # numbers are read by _config, in the grammar of elements.parse_integer
    common.add_argument("--samples", default="1000", metavar="K",
                        help="randomized samples per sweep of the base of all projections "
                        "on matrix models (default 1000)")
    common.add_argument("--seed", default=None,
                        help="RNG seed (default: COMPBASE_SEED or 0)")
    style = common.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true", help="JSON output (default)")
    style.add_argument("--table", action="store_true", help="aligned table output")
    common.add_argument("--output", type=Path, default=None, metavar="PATH",
                        help="write the report here instead of stdout")

    parser = _Parser(
        prog="compbase",
        description="validate models of unital groups with compression bases "
        "and sweep the theorems they are supposed to satisfy",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "unital-group axioms and the compression-base laws"),
        ("theorems", "every theorem sweep that applies to the model kind"),
        ("compat-table", "eight condition bits for every ordered pair of foci"),
        ("mackey", "Mackey decompositions of a pair of effects"),
        ("substructure", "build and re-validate an image or commutant substructure"),
        ("retractions", "enumerate every retraction of a finite model"),
        ("report", "run everything"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("model", type=Path)
        if name == "mackey":
            p.add_argument("e")
            p.add_argument("f")
        if name == "substructure":
            p.add_argument("v")
            p.add_argument("kind", choices=["image", "commutant"])
    return parser


def _integer_option(name: str, text: str) -> int:
    try:
        return parse_integer(text)
    except ValueError:
        raise ElementSyntaxError(f"{name}={text!r} is not an integer") from None


def _config(args) -> CheckConfig:
    seed, seed_name = args.seed, "--seed"
    if seed is None:
        seed, seed_name = os.environ.get("COMPBASE_SEED", "0"), "COMPBASE_SEED"
    return CheckConfig(
        samples=_integer_option("--samples", args.samples),
        seed=_integer_option(seed_name, seed),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        doc = _run(args, cfg)
    except (ModelFormatError, ElementSyntaxError, NotEnumerableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.table and "rows" in doc:
        text = _render_rows(jsonable(doc))
    elif args.table:
        text = render_table(doc)
    else:
        text = render_json(doc)
    if args.output is not None:
        try:
            args.output.write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK if doc["ok"] else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Usage::

    compbase validate MODEL
    compbase theorems MODEL
    compbase compat-table MODEL
    compbase mackey MODEL E F
    compbase substructure MODEL V {image,commutant}
    compbase retractions MODEL
    compbase report MODEL

Every command loads a model file, re-validates it, and exits 0 only when
every checked law holds.  Exit code 1 means a mathematical violation (the
output names the failing clause and carries a witness); exit code 2 means
the input could not be used at all (missing file, schema violation, bad
element syntax, an --output path that cannot be written).  The two are never conflated: a corrupted family is a
finding, a corrupted file is a usage error.

Output is JSON by default (sorted keys, exact rationals, no volatile
fields, so equal configurations produce byte-identical bytes), or an
aligned table with --table.  The seed comes from --seed, falling back to
the COMPBASE_SEED environment variable, then 0.

Elements on the command line: comma-separated integers for lattice models
("1,0"), row-major comma-separated integers or "a/b" rationals for matrix
models ("1/2,1/2,1/2,1/2").  Every integer, in an element, in --seed,
--samples and --height-bound and in COMPBASE_SEED, is optionally signed
ASCII digits, the one grammar of elements.parse_integer and
parse_rational: no "1_000", no spaces, no digits of other scripts.
"""

from __future__ import annotations

import argparse
import os
import sys
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
from .effect_algebra import EffectAlgebra, SubEffectAlgebra, mackey_decompositions
from .elements import SymMat, Vec, parse_integer, parse_rational
from .modelfile import ModelFormatError, load_model
from .models import NotEnumerableError, validate_unital_group
from .reporting import jsonable, render_json, render_table

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


def _first_failure(sections: dict) -> str | None:
    for report in sections.values():
        clause = report.first_failure()
        if clause is not None:
            return clause.name
    return None


def _document(command: str, model_path: Path, cfg: CheckConfig, sections: dict) -> dict:
    doc = {
        "command": command,
        "model": model_path.name,
        "config": {
            "height_bound": cfg.height_bound,
            "samples": cfg.samples,
            "seed": cfg.seed,
        },
        "sections": {name: jsonable(rep) for name, rep in sections.items()},
        "ok": all(rep.ok for rep in sections.values()),
    }
    failure = _first_failure(sections)
    if failure is not None:
        doc["first_failure"] = failure
    return doc


def _validation_sections(model, base, cfg: CheckConfig) -> dict:
    return {
        "00_unital_group": validate_unital_group(model, cfg),
        "01_compression_base": validate_compression_base(base, cfg),
    }


def _theorem_sections(model, base, cfg: CheckConfig) -> dict:
    sections = {"02_theorems": theorem_report(base, cfg)}
    if model.kind == "matrix":
        sections["03_theorems_sampled"] = theorem_report(projection_base(model), cfg)
    return sections


def cmd_validate(args, model, base, cfg) -> tuple[dict, int]:
    sections = _validation_sections(model, base, cfg)
    doc = _document("validate", args.model, cfg, sections)
    return doc, EXIT_OK if doc["ok"] else EXIT_VIOLATION


def cmd_theorems(args, model, base, cfg) -> tuple[dict, int]:
    sections = _validation_sections(model, base, cfg)
    if all(rep.ok for rep in sections.values()):
        sections.update(_theorem_sections(model, base, cfg))
    doc = _document("theorems", args.model, cfg, sections)
    return doc, EXIT_OK if doc["ok"] else EXIT_VIOLATION


def cmd_compat_table(args, model, base, cfg) -> tuple[dict, int]:
    sections = _validation_sections(model, base, cfg)
    doc = _document("compat-table", args.model, cfg, sections)
    if not doc["ok"]:
        return doc, EXIT_VIOLATION
    rows = [
        compat_battery(base, p, q)
        for p in base.foci
        for q in base.foci
    ]
    doc["rows"] = jsonable(rows)
    agree = all(r.agree for r in rows)
    doc["ok"] = agree
    if not agree:
        doc["first_failure"] = "battery_agreement"
    return doc, EXIT_OK if agree else EXIT_VIOLATION


def cmd_mackey(args, model, base, cfg) -> tuple[dict, int]:
    sections = _validation_sections(model, base, cfg)
    doc = _document("mackey", args.model, cfg, sections)
    if not doc["ok"]:
        return doc, EXIT_VIOLATION
    algebra = EffectAlgebra(model)
    e = _parse_element(model, args.e)
    f = _parse_element(model, args.f)
    for name, x in (("e", e), ("f", f)):
        if not algebra.contains(x):
            doc["error"] = f"{name} is not in the unit interval"
            return doc, EXIT_VIOLATION
    within = None
    if model.kind == "matrix":
        within = SubEffectAlgebra(algebra, frozenset(base.foci))
    triples = mackey_decompositions(algebra, e, f, within=within)
    doc["e"] = jsonable(e)
    doc["f"] = jsonable(f)
    doc["searched"] = "declared foci" if within is not None else "unit interval"
    doc["compatible"] = bool(triples)
    doc["triples"] = jsonable(list(triples))
    return doc, EXIT_OK


def cmd_substructure(args, model, base, cfg) -> tuple[dict, int]:
    sections = _validation_sections(model, base, cfg)
    doc = _document("substructure", args.model, cfg, sections)
    if not doc["ok"]:
        return doc, EXIT_VIOLATION
    v = _parse_element(model, args.v)
    if not base.contains_focus(v):
        doc["error"] = "v is not a focus of the declared base"
        return doc, EXIT_VIOLATION
    sub, rbase, report = substructure_report(base, v, args.kind, cfg)
    sections[f"10_{args.kind}"] = report
    doc = _document("substructure", args.model, cfg, sections)
    doc["v"] = jsonable(v)
    doc["kind"] = args.kind
    doc["unit"] = jsonable(sub.unit)
    doc["interval_size"] = len(sub.interval()) if sub.finite else None
    doc["foci"] = jsonable(list(rbase.foci))
    return doc, EXIT_OK if doc["ok"] else EXIT_VIOLATION


def cmd_retractions(args, model, base, cfg) -> tuple[dict, int]:
    if model.kind != "lattice_cone":
        raise NotEnumerableError(
            "retraction enumeration requires a finite lattice model"
        )
    sections = _validation_sections(model, base, cfg)
    doc = _document("retractions", args.model, cfg, sections)
    if not doc["ok"]:
        return doc, EXIT_VIOLATION
    sections["04_compressible"] = compressible_group_report(model, cfg)
    doc = _document("retractions", args.model, cfg, sections)
    return doc, EXIT_OK if doc["ok"] else EXIT_VIOLATION


def cmd_report(args, model, base, cfg) -> tuple[dict, int]:
    sections = _validation_sections(model, base, cfg)
    if all(rep.ok for rep in sections.values()):
        sections.update(_theorem_sections(model, base, cfg))
        if model.kind == "lattice_cone":
            sections["04_compressible"] = compressible_group_report(model, cfg)
        for i, v in enumerate(base.foci):
            for kind in ("image", "commutant"):
                _, _, rep = substructure_report(base, v, kind, cfg)
                sections[f"substructure_{i:02d}_{kind}"] = rep
            sections[f"product_{i:02d}"] = direct_product_report(base, v, cfg)
    doc = _document("report", args.model, cfg, sections)
    return doc, EXIT_OK if doc["ok"] else EXIT_VIOLATION


_COMMANDS = {
    "validate": cmd_validate,
    "theorems": cmd_theorems,
    "compat-table": cmd_compat_table,
    "mackey": cmd_mackey,
    "substructure": cmd_substructure,
    "retractions": cmd_retractions,
    "report": cmd_report,
}


def _render_rows(doc: dict) -> str:
    names = list(doc["rows"][0]["conditions"]) if doc["rows"] else []
    header = ["p", "q"] + names + ["agree"]
    rows = [header]
    for r in doc["rows"]:
        rows.append(
            [str(r["p"]), str(r["q"])]
            + ["1" if r["conditions"][n] else "0" for n in names]
            + ["yes" if r["agree"] else "NO"]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(row[i].ljust(widths[i]) for i in range(len(row))).rstrip() for row in rows]
    lines.append("ok" if doc["ok"] else "FAILED")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # numbers are read by _config, in the grammar of elements.parse_integer
    common.add_argument("--height-bound", default="3", metavar="N",
                        help="bound for the positive test universe (default 3)")
    common.add_argument("--samples", default="1000", metavar="K",
                        help="randomized samples per sweep on matrix models (default 1000)")
    common.add_argument("--seed", default=None,
                        help="RNG seed (default: COMPBASE_SEED or 0)")
    style = common.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true", help="JSON output (default)")
    style.add_argument("--table", action="store_true", help="aligned table output")
    common.add_argument("--output", type=Path, default=None, metavar="PATH",
                        help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(
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
        height_bound=_integer_option("--height-bound", args.height_bound),
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
        model, base = load_model(args.model)
        doc, code = _COMMANDS[args.command](args, model, base, cfg)
    except (ModelFormatError, ElementSyntaxError, NotEnumerableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.table and "rows" in doc:
        text = _render_rows(doc)
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
    return code


if __name__ == "__main__":
    sys.exit(main())

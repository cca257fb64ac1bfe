"""Command line contract: exit codes, JSON shape, determinism, rendering."""

import json
import os
import subprocess
import sys

import pytest

from compbase import cli, jsonable, load_model, render_json
from compbase.cli import main
from conftest import BUNDLED, FIXTURES_DIR, MODELS_DIR, REPO

FAST = ["--samples", "30", "--height-bound", "3"]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_validate_ok(capsys):
    code, doc = run_json(capsys, "validate", MODELS_DIR / "m1.json", *FAST)
    assert code == 0
    assert doc["ok"] is True
    assert doc["command"] == "validate"
    assert set(doc["sections"]) == {"00_unital_group", "01_compression_base"}
    assert "first_failure" not in doc


def test_one_parser_serves_every_call(capsys):
    """main builds its parser once per process, and a call that fails to
    parse leaves it fit for the next; the JSON a call writes is its
    document rendered by render_json."""
    first = run(capsys, "validate", MODELS_DIR / "m1.json", *FAST)
    with pytest.raises(SystemExit):
        main(["validate"])
    capsys.readouterr()
    assert run(capsys, "validate", MODELS_DIR / "m1.json", *FAST) == first
    assert cli._build_parser.cache_info().currsize == 1
    args = cli._build_parser().parse_args(["validate", str(MODELS_DIR / "m1.json"), *FAST])
    assert render_json(cli._run(args, cli._config(args))) == first[1]


@pytest.mark.parametrize(
    "stem,clause",
    [
        ("corrupt_swapped_foci", "family_member_compression"),
        ("corrupt_missing_closure", "foci_sub_effect_algebra"),
        ("corrupt_nonnormal_foci", "foci_normal_subalgebra"),
        ("corrupt_focus_outside_interval", "family_member_compression"),
    ],
)
def test_corrupt_models_fail_with_named_clause(capsys, stem, clause):
    code, doc = run_json(capsys, "validate", FIXTURES_DIR / f"{stem}.json", *FAST)
    assert code == 1
    assert doc["ok"] is False
    assert doc["first_failure"] == clause
    failing = [
        c
        for rep in doc["sections"].values()
        for c in rep["clauses"]
        if c["status"] == "fail"
    ]
    assert failing and failing[0]["witness"] is not None


def test_missing_file_is_usage_error(capsys):
    code = main(["validate", str(MODELS_DIR / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_schema_error_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "matrix", "dim": 2}')
    code = main(["validate", str(bad)])
    assert code == 2


def test_bad_config_is_usage_error(capsys):
    code = main(["validate", str(MODELS_DIR / "m1.json"), "--height-bound", "0"])
    assert code == 2


def z2_model(tmp_path, cone_rows, unit):
    """Z^2 under `cone_rows` with `unit` and the base {0: 0, unit: 1}
    ({0: 0} on a zero unit)."""
    path = tmp_path / "z2.json"
    compressions = [{"focus": [0, 0], "matrix": [[0, 0], [0, 0]]}]
    if any(unit):
        compressions.append({"focus": unit, "matrix": [[1, 0], [0, 1]]})
    path.write_text(json.dumps({"kind": "lattice_cone", "dim": 2, "cone_rows": cone_rows,
                                "unit": unit, "compressions": compressions}))
    return path


@pytest.mark.parametrize(
    "cone_rows,unit,clause",
    [
        ([[1, 0]], [1, 0], "order_antisymmetric"),
        ([[1, 0], [0, 1]], [0, 0], "unit_positive_nonzero"),
        ([[1, 0], [0, 1]], [1, -1], "unit_positive_nonzero"),
        ([[1, 0], [0, 1]], [1, 0], "interval_generates_group"),
    ],
)
def test_failed_unital_group_skips_the_base(capsys, tmp_path, cone_rows, unit, clause):
    # the first case is a cone that is not pointed: named (exit 1), not enumerated (exit 2)
    code, doc = run_json(capsys, "validate", z2_model(tmp_path, cone_rows, unit), *FAST)
    assert (code, doc["ok"], doc["first_failure"]) == (1, False, clause)
    assert list(doc["sections"]) == ["00_unital_group"]


def test_a_positive_above_the_default_box_fails_validation(capsys, tmp_path):
    """Z^2 under [[6, -1], [0, 1], [6, -5]] with unit (4, 1): the ray (5, 6)
    is positive and no sum of interval elements, and the smallest box that
    holds it has height 6.  The derived height N(C, u) = 6 finds it at the
    default flags."""

    path = z2_model(tmp_path, [[6, -1], [0, 1], [6, -5]], [4, 1])
    code, doc = run_json(capsys, "validate", path)
    assert (code, doc["ok"], doc["first_failure"]) == (1, False, "interval_generates_positives")
    clause = doc["sections"]["00_unital_group"]["clauses"][-1]
    assert (clause["name"], clause["witness"]) == ("interval_generates_positives", {"positive": [5, 6]})


@pytest.mark.parametrize(
    "argv", [("substructure", "-1,1", "image"), ("mackey", "-1,1", "0,0")], ids=["substructure", "mackey"]
)
def test_an_element_with_a_leading_minus_is_a_positional(capsys, tmp_path, argv):
    """m5 under g -> -g: cone rows -R, unit (-1, -1) and foci (0, 0),
    (-1, 1), (0, -2) and (-1, -1), each with its map unchanged.  "-1,1"
    reads as an element, next to "--seed -4"."""

    m5 = json.loads((MODELS_DIR / "m5.json").read_text())
    negated = [[-x for x in row] for row in m5["cone_rows"]]
    compressions = [{"focus": [-x for x in c["focus"]], "matrix": c["matrix"]}
                    for c in m5["compressions"]]
    path = tmp_path / "m5-negated.json"
    path.write_text(json.dumps({**m5, "cone_rows": negated, "unit": [-1, -1],
                                "compressions": compressions}))
    command, *elements = argv
    code, doc = run_json(capsys, command, path, *elements, "--seed", "-4")
    assert (code, doc["ok"], doc["config"]["seed"]) == (0, True, -4)


def test_interval_too_large_is_usage_error(capsys, tmp_path):
    code = main(["validate", str(z2_model(tmp_path, [[1, 0], [0, 1]], [3000, 3000]))])
    assert code == 2
    assert capsys.readouterr().err == "error: interval too large to enumerate\n"


def test_mackey_compatible_pair(capsys):
    code, doc = run_json(
        capsys, "mackey", MODELS_DIR / "m1.json", "1,0", "0,1", *FAST
    )
    assert code == 0
    assert doc["compatible"] is True
    assert doc["searched"] == "unit interval"
    assert {"e1": [1, 0], "f1": [0, 1], "d": [0, 0]} in doc["triples"]


def test_mackey_matrix_searches_declared_foci(capsys):
    code, doc = run_json(
        capsys,
        "mackey",
        MODELS_DIR / "m3.json",
        "1,0,0,0",
        "0,0,0,1",
        *FAST,
    )
    assert code == 0
    assert doc["searched"] == "declared foci"
    assert doc["compatible"] is True


def test_mackey_incompatible_matrix_pair(capsys):
    code, doc = run_json(
        capsys,
        "mackey",
        MODELS_DIR / "m3.json",
        "1,0,0,0",
        "1/2,1/2,1/2,1/2",
        *FAST,
    )
    assert code == 0
    assert doc["compatible"] is False
    assert doc["triples"] == []


def test_mackey_non_effect_is_violation(capsys):
    code, doc = run_json(capsys, "mackey", MODELS_DIR / "m1.json", "2,0", "0,1", *FAST)
    assert code == 1
    assert "not in the unit interval" in doc["error"]
    assert doc["ok"] is False and "first_failure" not in doc
    code, out = run(capsys, "mackey", MODELS_DIR / "m1.json", "2,0", "0,1", "--table", *FAST)
    assert code == 1
    assert out.rstrip().endswith("FAILED")


@pytest.mark.parametrize(
    "e,f,error",
    [
        ("1/2,0,0,1/2", "1,0,0,0", "e is not a focus of the declared base"),
        ("1,0,0,0", "1/2,0,0,1/2", "f is not a focus of the declared base"),
        # interval membership of both is tested before focus membership
        ("1/2,0,0,1/2", "2,0,0,0", "f is not in the unit interval"),
    ],
)
def test_mackey_matrix_non_focus_is_violation(capsys, e, f, error):
    code, doc = run_json(capsys, "mackey", MODELS_DIR / "m3.json", e, f, *FAST)
    assert code == 1
    assert doc["error"] == error
    assert doc["ok"] is False and "first_failure" not in doc
    assert "triples" not in doc


def test_mackey_bad_syntax_is_usage_error(capsys):
    assert main(["mackey", str(MODELS_DIR / "m1.json"), "1,x", "0,1"]) == 2
    assert main(["mackey", str(MODELS_DIR / "m1.json"), "1,0,0", "0,1"]) == 2
    # asymmetric matrix text is rejected before any mathematics runs
    assert main(["mackey", str(MODELS_DIR / "m3.json"), "1,1,0,1", "1,0,0,1"]) == 2


@pytest.mark.parametrize("text", ["0_1,0", "\uff11,0", "\u0661,0", "1.0,0", "0x1,0"])
def test_lattice_element_grammar_is_ascii_integers(capsys, text):
    m1 = str(MODELS_DIR / "m1.json")
    assert main(["mackey", m1, text, "0,1", *FAST]) == 2
    assert "comma-separated integers" in capsys.readouterr().err
    assert main(["mackey", m1, "+1, 0", "0,1", *FAST]) == 0


def test_substructure_image(capsys):
    code, doc = run_json(
        capsys, "substructure", MODELS_DIR / "m1.json", "1,0", "image", *FAST
    )
    assert code == 0
    assert doc["unit"] == [1, 0]
    assert doc["interval_size"] == 2
    assert sorted(doc["foci"]) == [[0, 0], [1, 0]]
    assert "10_image" in doc["sections"]


def test_substructure_commutant_matrix(capsys):
    code, doc = run_json(
        capsys,
        "substructure",
        MODELS_DIR / "m3.json",
        "1,0,0,0",
        "commutant",
        *FAST,
    )
    assert code == 0
    assert doc["unit"] == [[1, 0], [0, 1]]
    assert doc["interval_size"] is None
    assert len(doc["foci"]) == 4


def test_substructure_non_focus_is_violation(capsys):
    code, doc = run_json(
        capsys, "substructure", MODELS_DIR / "m1.json", "2,0", "image", *FAST
    )
    assert code == 1
    assert doc["error"] == "v is not a focus of the declared base"
    assert doc["ok"] is False and "first_failure" not in doc
    assert "10_image" not in doc["sections"]
    code, out = run(
        capsys, "substructure", MODELS_DIR / "m1.json", "2,0", "image", "--table", *FAST
    )
    assert code == 1
    assert out.rstrip().endswith("FAILED")


def test_retractions_census(capsys):
    code, doc = run_json(capsys, "retractions", MODELS_DIR / "m1.json", *FAST)
    assert code == 0
    census = next(
        c
        for c in doc["sections"]["04_compressible"]["clauses"]
        if c["name"] == "retraction_census"
    )
    assert census["checked"] == 4


def _element_text(x) -> str:
    value = jsonable(x)
    flat = [c for row in value for c in row] if isinstance(value[0], list) else value
    return ",".join(map(str, flat))


CONTRACT_COMMANDS = {
    "validate": ("validate",),
    "theorems": ("theorems",),
    "compat-table": ("compat-table",),
    "report": ("report",),
    "retractions": ("retractions",),
    "mackey": ("mackey", "u", "u"),
    "mackey-refused": ("mackey", "2u", "u"),
    "substructure": ("substructure", "u", "commutant"),
    "substructure-refused": ("substructure", "2u", "image"),
}


@pytest.mark.parametrize("command", CONTRACT_COMMANDS)
@pytest.mark.parametrize(
    "path",
    [MODELS_DIR / f"{stem}.json" for stem in BUNDLED] + sorted(FIXTURES_DIR.glob("*.json")),
    ids=lambda path: path.stem,
)
def test_exit_code_is_zero_exactly_when_ok(capsys, command, path):
    """Every command exits 0 exactly when its document says ok, and ok is
    false exactly when the document names a failure or an error."""
    model, _ = load_model(path)
    texts = {"u": _element_text(model.unit), "2u": _element_text(model.unit + model.unit)}
    name, *rest = CONTRACT_COMMANDS[command]
    code, out = run(capsys, name, path, *(texts.get(a, a) for a in rest), "--samples", "8")
    if command == "retractions" and model.kind == "matrix":
        assert (code, out) == (2, "")
        return
    doc = json.loads(out)
    assert code == (0 if doc["ok"] else 1)
    assert doc["ok"] is not ("first_failure" in doc or "error" in doc)
    if command.endswith("-refused"):
        assert code == 1


def test_retractions_on_matrix_model_is_usage_error(capsys):
    assert main(["retractions", str(MODELS_DIR / "m3.json")]) == 2


def test_theorem_sections_by_kind(capsys):
    code, doc = run_json(capsys, "theorems", MODELS_DIR / "m1.json", *FAST)
    assert code == 0
    assert "02_theorems" in doc["sections"]
    assert "03_theorems_sampled" not in doc["sections"]

    code, doc = run_json(capsys, "theorems", MODELS_DIR / "m3.json", *FAST)
    assert code == 0
    assert "02_theorems" in doc["sections"]
    assert "03_theorems_sampled" in doc["sections"]


def test_compat_table_json_and_table(capsys):
    code, doc = run_json(capsys, "compat-table", MODELS_DIR / "m1.json", *FAST)
    assert code == 0
    assert len(doc["rows"]) == 16
    assert all(r["agree"] for r in doc["rows"])

    code, out = run(capsys, "compat-table", MODELS_DIR / "m1.json", "--table", *FAST)
    assert code == 0
    assert "commute" in out.splitlines()[0]
    assert out.rstrip().endswith("ok")


def test_table_rendering_of_reports(capsys):
    code, out = run(capsys, "validate", MODELS_DIR / "m2.json", "--table", *FAST)
    assert code == 0
    assert "clause" in out.splitlines()[0]
    assert out.rstrip().endswith("ok")


def test_reports_are_byte_identical(capsys):
    args = ("report", MODELS_DIR / "m3.json", "--samples", "25", "--seed", "5")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_environment_fallback(capsys, monkeypatch):
    monkeypatch.setenv("COMPBASE_SEED", "17")
    _, doc = run_json(capsys, "validate", MODELS_DIR / "m1.json", *FAST)
    assert doc["config"]["seed"] == 17
    _, doc = run_json(capsys, "validate", MODELS_DIR / "m1.json", "--seed", "3", *FAST)
    assert doc["config"]["seed"] == 3
    monkeypatch.setenv("COMPBASE_SEED", "zebra")
    assert main(["validate", str(MODELS_DIR / "m1.json")]) == 2


@pytest.mark.parametrize(
    "option,text",
    [
        ("--seed", "1_0"),
        ("--seed", "\u0663"),
        ("--seed", " 3"),
        ("--samples", "1_0"),
        ("--samples", "\uff18"),
        ("--height-bound", "2_0"),
        ("--height-bound", "3.0"),
    ],
)
def test_numeric_options_are_ascii_integers(capsys, option, text):
    code = main(["validate", str(MODELS_DIR / "m1.json"), option, text])
    assert code == 2
    assert f"{option}={text!r} is not an integer" in capsys.readouterr().err


def test_seed_environment_is_an_ascii_integer(capsys, monkeypatch):
    for text in (" \u0663 ", "1_0", "3 "):
        monkeypatch.setenv("COMPBASE_SEED", text)
        assert main(["validate", str(MODELS_DIR / "m1.json")]) == 2
        assert "COMPBASE_SEED=" in capsys.readouterr().err
    monkeypatch.setenv("COMPBASE_SEED", "-4")
    _, doc = run_json(
        capsys, "validate", MODELS_DIR / "m1.json", "--samples", "+30", "--height-bound", "3"
    )
    assert doc["config"] == {"height_bound": 3, "samples": 30, "seed": -4}


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run(
        capsys, "validate", MODELS_DIR / "m1.json", "--output", target, *FAST
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["ok"] is True


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    code = main(["validate", str(MODELS_DIR / "m1.json"), "--output", str(target), *FAST])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ["0.5", "1e-3", "1_000"])
def test_matrix_element_grammar_is_integers_and_fractions(capsys, text):
    m3 = str(MODELS_DIR / "m3.json")
    assert main(["mackey", m3, f"{text},0,0,0", "1,0,0,0", *FAST]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["mackey", m3, "1/2,-1/2,-1/2,1/2", "1,0,0,0", *FAST]) == 0


def test_model_file_exponent_entries_are_usage_errors(capsys, tmp_path):
    doc = json.loads((MODELS_DIR / "m3.json").read_text())
    doc["projections"][1] = [["1e0", "0e5"], ["0e5", "0e5"]]
    path = tmp_path / "m3-exponents.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), *FAST]) == 2
    assert "bad rational" in capsys.readouterr().err


def _child_env() -> dict:
    # pytest's `pythonpath` setting reaches this process only, so the child
    # gets the source tree on its own path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "compbase.cli", "validate", str(MODELS_DIR / "m1.json")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # every CLI command is a fresh process, so each module the import pulls
    # in is paid for on every run
    probe = "import compbase.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_report_script_reads_numbers_in_the_cli_grammar(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_report.py"),
         "--seed", "1_0", "--out", str(tmp_path / "reports")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 2
    assert "--seed='1_0' is not an integer" in proc.stderr

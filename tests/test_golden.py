"""Behaviour lock: pinned sha256 of the CLI output bytes, and of the
library reports the CLI never prints.

`report` covers every section on each bundled model (m4 is the only pin on
the 3x3 substructure and product paths); `validate` on the corrupted
fixtures covers fail-path witnesses and checked counts; `theorems` on m3 at
a larger sample budget covers the larger denominators that the small
budget never reaches; `report` m3 and `theorems` m4 at seed 1 are the
jobs of the matrix-report benchmark.  A change that
moves any of these bytes must say why in CHANGES.md and re-pin the hash
there; a hash is never regenerated silently.
"""

import hashlib
import json

import pytest

from compbase import (
    CheckConfig,
    MatrixModel,
    load_model,
    projection_base,
    render_json,
    theorem_report,
    validate_compression_base,
)
from compbase.cli import main
from conftest import FIXTURES_DIR, MODELS_DIR

CONFIG = ["--samples", "8", "--seed", "0"]

REPORT_SHA256 = {
    "m1": "f16bef2d20d835beb2a574d0bd762b848613b227233d742ad88c847e0ece6b4d",
    "m2": "8ecd5f16a8084ea4eb1b27b58d2e709bdc9bc43bcca4e79fb4ff1454faa2bd75",
    "m3": "59e5858b3db28174f19bc6f1e7cc7e3de58fbec93116ed370484a5f52be2edd2",
    "m4": "aab7fd7d13b89cee731e6857d5a70e8c803b17584a1f77f1e7444601d897ace0",
    "m5": "dd9154a92a018e54d450cc531b2a63723eb574c723201ca1070513de840030a3",
}

VALIDATE_SHA256 = {
    "corrupt_focus_outside_interval": "7fa9e3f6bf63ab967705386d64151ec055e6e9af9fded04e7c47798c77b5eb34",
    "corrupt_matrix_half_focus": "8714f51b68ed2d8772f303660ed49b3d5c6c026d9f88c7f1adac3379d458cd1c",
    "corrupt_matrix_missing_complement": "08148ff165dbcafbf82ddd1716d4096250124a632e605c6bacd66f54c393c5c5",
    "corrupt_missing_closure": "2cd4628ef60bd9115a46dbabf40541a45d05a2bc50dc64d417ed2311b0c5f7d8",
    "corrupt_nonnormal_foci": "560178e60a664e3f9087eef48484cc4b144b56811c03d066e901e5a9e36f4f6f",
    "corrupt_swapped_foci": "36b3090e4367e174144448971a99b7ab4242f1467f55f6e711706fc3bbef0437",
}


# theorems models/m3.json --samples 64 --seed 0
THEOREMS_M3_64_SHA256 = "cd9bf94442b3d86005c3be226dbb1472181b83cbfb7838345378cef8f1ae3f6e"

# the two jobs of the matrix-report benchmark at --samples 8 --seed 1:
# (command, model) -> sha256
MATRIX_SEED1_SHA256 = {
    ("report", "m3"): "4bc00ba397efc50bc14e51081567eebe4528652edf6549aab5755d271f1216a3",
    ("theorems", "m4"): "1152955f634f45d98e45499928c99dee094aa538672834df9e4d6f3f10f19762",
}


# Library reports at samples=8, seed=0, rendered with render_json.  The CLI
# runs the theorems only on bases that validate, so these pin the theorem
# fail paths: theorem_report on each corrupted fixture's declared base.
LIBRARY_CFG = CheckConfig(samples=8, seed=0)

FIXTURE_THEOREMS_SHA256 = {
    "corrupt_focus_outside_interval": "e9f7bc5dbd3a4df8e0d7b81df0527d5e81c0b6009c8defac2b4006d87e74092d",
    "corrupt_matrix_half_focus": "eb4da2037db3f41cb535d346138cf460b11d1aee8ba6727fe8b8c8992f2617dc",
    "corrupt_matrix_missing_complement": "3d7fe0e40119d3b8b03098a06fb9fe0604c9b91f123dc1df94cd06b3b537e532",
    "corrupt_missing_closure": "94dc4425747ff25426aa0220bf7cad69dc51ca2e8cfa386a4db81de3ded6465d",
    "corrupt_nonnormal_foci": "9297240bd83b2cff6eb76a3f1f00c9912f8ea9078881d15f9d1e587f208fecc9",
    "corrupt_swapped_foci": "5071bccdd66765904362c9d28bc00f55e3f917acfdaf9993f4cf3062f9194816",
}

# (report, d) -> sha256 on projection_base(MatrixModel(d)), the base of all
# projections; no model file declares it.
PROJECTION_BASE_SHA256 = {
    ("validate", 2): "8ddad91a92c780afe136c0ff7df990ce0203dde87604e4cd850f86eda95ba3fd",
    ("validate", 3): "8ddad91a92c780afe136c0ff7df990ce0203dde87604e4cd850f86eda95ba3fd",
    ("theorems", 2): "bbab934565b5aa692087386b2ee4c79db90626433c2aaef35bb81a875ad674d3",
    ("theorems", 3): "fab6e8c1c1bd2945e4cac6a0d9b6f0720016495387d57ae6ce5a1df517e02530",
}


def _diag(*bits):
    return [[b if i == j else 0 for j, _ in enumerate(bits)] for i, b in enumerate(bits)]


# Z^2 and Z^3 under the standard cone, based on the projections onto blocks
# of coordinates, and Z^2 under the m5 cone with its two coordinate foci.
LATTICE_MODELS = {
    "z2-std-3x5": {
        "kind": "lattice_cone",
        "dim": 2,
        "cone_rows": _diag(1, 1),
        "unit": [3, 5],
        "compressions": [
            {"focus": [0, 0], "matrix": _diag(0, 0)},
            {"focus": [0, 5], "matrix": _diag(0, 1)},
            {"focus": [3, 0], "matrix": _diag(1, 0)},
            {"focus": [3, 5], "matrix": _diag(1, 1)},
        ],
    },
    "z2-m5-5x-2": {
        "kind": "lattice_cone",
        "dim": 2,
        "cone_rows": [[1, 0], [1, 1]],
        "unit": [5, -2],
        "compressions": [
            {"focus": [0, 0], "matrix": [[0, 0], [0, 0]]},
            {"focus": [5, -5], "matrix": [[1, 0], [-1, 0]]},
            {"focus": [0, 3], "matrix": [[0, 0], [1, 1]]},
            {"focus": [5, -2], "matrix": [[1, 0], [0, 1]]},
        ],
    },
    "z3-std-1x1x1": {
        "kind": "lattice_cone",
        "dim": 3,
        "cone_rows": _diag(1, 1, 1),
        "unit": [1, 1, 1],
        "compressions": [
            {"focus": [0, 0, 0], "matrix": _diag(0, 0, 0)},
            {"focus": [0, 1, 1], "matrix": _diag(0, 1, 1)},
            {"focus": [1, 0, 0], "matrix": _diag(1, 0, 0)},
            {"focus": [1, 1, 1], "matrix": _diag(1, 1, 1)},
        ],
    },
}

# report --seed 0 on each of LATTICE_MODELS
LATTICE_REPORT_SHA256 = {
    "z2-m5-5x-2": "a6d14fd445316aafa2ee0bd66e60e627f8a0d6ef941eb107c1006a373aa93ce9",
    "z2-std-3x5": "50557904ea38b8ad4aaf39fcd7d959635b25e6cbef56d02cf845b513f9cb4ed7",
    "z3-std-1x1x1": "38976b28f26ea9ec6ba1613ae1ebdfcbf2d7c1ca3352c2ac0d4e22073470799f",
}


def _sha256_of_run(capsys, *argv, config=CONFIG) -> tuple[int, str]:
    code = main([str(a) for a in argv] + config)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_pinned(capsys, name):
    code, digest = _sha256_of_run(capsys, "report", MODELS_DIR / f"{name}.json")
    assert code == 0
    assert digest == REPORT_SHA256[name]


@pytest.mark.parametrize("stem", sorted(VALIDATE_SHA256))
def test_corrupt_validate_bytes_pinned(capsys, stem):
    code, digest = _sha256_of_run(capsys, "validate", FIXTURES_DIR / f"{stem}.json")
    assert code == 1
    assert digest == VALIDATE_SHA256[stem]


def test_theorems_m3_larger_budget_bytes_pinned(capsys):
    code, digest = _sha256_of_run(
        capsys, "theorems", MODELS_DIR / "m3.json", config=["--samples", "64", "--seed", "0"]
    )
    assert code == 0
    assert digest == THEOREMS_M3_64_SHA256


@pytest.mark.parametrize("command,name", sorted(MATRIX_SEED1_SHA256))
def test_matrix_seed1_bytes_pinned(capsys, command, name):
    code, digest = _sha256_of_run(
        capsys, command, MODELS_DIR / f"{name}.json", config=["--samples", "8", "--seed", "1"]
    )
    assert code == 0
    assert digest == MATRIX_SEED1_SHA256[command, name]


@pytest.mark.parametrize("name", sorted(LATTICE_REPORT_SHA256))
def test_lattice_report_bytes_pinned(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(LATTICE_MODELS[name]))
    code, digest = _sha256_of_run(capsys, "report", path, config=["--seed", "0"])
    assert code == 0
    assert digest == LATTICE_REPORT_SHA256[name]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("stem", sorted(FIXTURE_THEOREMS_SHA256))
def test_fixture_theorem_report_bytes_pinned(stem):
    _, base = load_model(FIXTURES_DIR / f"{stem}.json")
    report = theorem_report(base, LIBRARY_CFG)
    assert not report.ok
    assert _sha256(render_json(report)) == FIXTURE_THEOREMS_SHA256[stem]


@pytest.mark.parametrize("kind,dim", sorted(PROJECTION_BASE_SHA256))
def test_projection_base_bytes_pinned(kind, dim):
    check = validate_compression_base if kind == "validate" else theorem_report
    report = check(projection_base(MatrixModel(dim)), LIBRARY_CFG)
    assert report.ok
    assert _sha256(render_json(report)) == PROJECTION_BASE_SHA256[kind, dim]

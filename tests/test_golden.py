"""Behaviour lock: pinned sha256 of the CLI output bytes.

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

from compbase.cli import main
from conftest import FIXTURES_DIR, MODELS_DIR

CONFIG = ["--samples", "8", "--seed", "0"]

REPORT_SHA256 = {
    "m1": "d801e4087fb8ecb7657739098da7cc64f331644e2fd761c9027dd86e70fef615",
    "m2": "ab5eabf6f0162a59afc2406265607053f8551684fa748fe76f688ddca088b55c",
    "m3": "5323bf212ebf2c02c213f0b5a13d63398aee8e0c61d44d53e64dcf804b2511e2",
    "m4": "8becaa90130378c9cd4346c3c9b651798dfd6f4c60d67536cb1fa4b65d969874",
    "m5": "34baa5e45da6c1b8b8670da85018887067eed62e02e5678f3111e3aeb5de1dbc",
}

VALIDATE_SHA256 = {
    "corrupt_focus_outside_interval": "77a98a053b6a60730fb992e7fa51ecb4a1d4565d85a95bac951ab72f7ef2b17a",
    "corrupt_missing_closure": "4b7ff4160d95f25a979b3f79715745824dca0d79ed002f431903d41789a8b617",
    "corrupt_nonnormal_foci": "e7ca0933c82ec0537f16115b88d68e3bcae0d3f301effd0716819334a502c56b",
    "corrupt_swapped_foci": "bdad7322e186b2a9a3990bb7f5ba02751405beb25fe2b0de7c95fcbdc97579ae",
}


# theorems models/m3.json --samples 64 --seed 0
THEOREMS_M3_64_SHA256 = "50b0d74c922707115d01f5ddec6c890f5ccbe7065ce2c61e8b07aa03dc09d771"

# the two jobs of the matrix-report benchmark at --samples 8 --seed 1:
# (command, model) -> sha256
MATRIX_SEED1_SHA256 = {
    ("report", "m3"): "02fbb7493d4cde79ed991367cfc51293c52f076ca882ed581bc64ce8091d0c8e",
    ("theorems", "m4"): "72842f8211163cbea742c3c5552b507d01593c1b38f9f4d8a991032fc4b45b6d",
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
    "z2-m5-5x-2": "52e8c4abc5e734bb0aaa4c35bf80368c5d2fcf50fa4e09ab4a5fac3d7e6e8aee",
    "z2-std-3x5": "42f8cf41dbb43a33cdf9cf2c822ab4d49306f1e1b1eccf23d597304f107b2d10",
    "z3-std-1x1x1": "a5527213694187f39e2adddb00f7afef99b0bd2af2d59c8e023590d952f15100",
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

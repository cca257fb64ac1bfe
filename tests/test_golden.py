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
    "m1": "4742397e25a82fb48cb3df8f56c87b4dfe1e628e23808f961ae890853357b43d",
    "m2": "4e3d956612cbe9b837e68a62a572ff38f8a5df712ab040b24da6ccdab5d3ba3f",
    "m3": "3b85956af231000e903d48becf5096bc57af5b79ed3d1f795cb67e5676c4266b",
    "m4": "abee6b91c4d5abeb3fcee3106cdc38d2fe5ba23633c49c94b5bc4758444a61ce",
    "m5": "79f737c53ca7089984704eed5af3bd8ca9a8467d64ac6e278c53f027c83f58c1",
}

VALIDATE_SHA256 = {
    "corrupt_focus_outside_interval": "d1dde37f6c9c0019cdd171286e7eab197d8c4ba3ae10c9dcfcc4d549ae2bad21",
    "corrupt_matrix_half_focus": "159414dfb3a7906bf8b120863014bac77da2c2187cf5a94f179bd3d457d6db33",
    "corrupt_matrix_missing_complement": "1d1238719c52b18892bbf3737b5edfc8e32c344c2f281860cc59ce4bc2512657",
    "corrupt_missing_closure": "6bfdc3209182caf0966bd0ba56eadd56af84c3c007691926e5b389941ad52cac",
    "corrupt_nonnormal_foci": "18130b913554f0978f459d78fa8701d89cc188c715d6f8807574ff34a8dddecb",
    "corrupt_swapped_foci": "859b1c991cb25397fa032237f39d18e2a243ee3871157f9311c4a8cd678c1cc8",
}


# theorems models/m3.json --samples 64 --seed 0
THEOREMS_M3_64_SHA256 = "26a760441e6ef263b7ca5e471565fa7ea9d50e4a1098f5e5cea9e22efc41b7bc"

# the two jobs of the matrix-report benchmark at --samples 8 --seed 1:
# (command, model) -> sha256
MATRIX_SEED1_SHA256 = {
    ("report", "m3"): "63655f216b9afe3820b29abf27dde82427cb7ea7fb7c58d3984e58084b512205",
    ("theorems", "m4"): "fcbdd0f4afd471cf1735f6e16fd1e9fcb3854685bc1c1bdc21302df69a7ee955",
}


# Library reports at samples=8, seed=0, rendered with render_json.  The CLI
# runs the theorems only on bases that validate, so these pin the theorem
# fail paths: theorem_report on each corrupted fixture's declared base.
LIBRARY_CFG = CheckConfig(samples=8, seed=0)

FIXTURE_THEOREMS_SHA256 = {
    "corrupt_focus_outside_interval": "afb13a7b38b58221b420b5cb408bc7a2d967cef84c4922f472ac57ed482c5112",
    "corrupt_matrix_half_focus": "eb4da2037db3f41cb535d346138cf460b11d1aee8ba6727fe8b8c8992f2617dc",
    "corrupt_matrix_missing_complement": "3d7fe0e40119d3b8b03098a06fb9fe0604c9b91f123dc1df94cd06b3b537e532",
    "corrupt_missing_closure": "b6368b99a67f4dc161892c6900fadd104d4a3faeb0de1e65293d6eaf7b8c531a",
    "corrupt_nonnormal_foci": "ce605cf7ecb92d118ca04d5b7ecba45e5dfe320c1527468712815a8e9fcffe64",
    "corrupt_swapped_foci": "3c02637ac6aba54ee44410235984119df8af337bf944e1c068226fbb621416d8",
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
    "z2-m5-5x-2": "9802dbd441214b65a480f0dc4006b83e018dabc0501f1df608c964e818e06829",
    "z2-std-3x5": "09c09fed3efac4de3f1acb5c73adc782390d9249ffc494ca717d051ed93b2cb6",
    "z3-std-1x1x1": "836da30b6d6b60d43b3863f1c59b77bfb1fd9ef9c4162cd931a30895650b1164",
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

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
    "m1": "c4656117d9c32156545ecb15d1ed57ae4f6050d2230f7039a4286cf129f8ac29",
    "m2": "fe14df9c5d0de42498f5cadbf7cb4361f86a1e68dfb09713671c91c07be9cf3b",
    "m3": "7877b6eea1a77c8ad1c030de8076495e2541ac512b80981eab7e9e779a508b69",
    "m4": "4536fe4bdfe9e764f0bea65e758b7cec4110533f399749c57efdd046f35d7067",
    "m5": "0ae0874f8bc940b4b334b39704bb8b863091b5508e8c3668067ba7602c5c1765",
}

VALIDATE_SHA256 = {
    "corrupt_focus_outside_interval": "233d25173643b4ce5329721733766e166db10f01e04cf724d399e784b2a2735a",
    "corrupt_matrix_half_focus": "97fc9b956987c5ed4e6720547cfa16b933f7450c10204b6699cac925126320dc",
    "corrupt_matrix_missing_complement": "84537ccdc75bd534067c8a72633f5d044b826b2660905597feff0bd4ed9191d8",
    "corrupt_missing_closure": "ea842fa7f31ee0da7477752fc2922a13ba994e03711d5b99bf15717b9e65e4e5",
    "corrupt_nonnormal_foci": "bc9adc7074f0593125ab7b54e88aaae52f622ce3fa742456105c9c373a2414ce",
    "corrupt_swapped_foci": "afba53ada7addb8be080f88e01fa6fa9bec2f949499f6ee1e30b14ba2b03e574",
}


# theorems models/m3.json --samples 64 --seed 0
THEOREMS_M3_64_SHA256 = "d25b50a850f5852706c24562038b7a4e73f971c499b3cf005ad5ce519cdb1e2a"

# the two jobs of the matrix-report benchmark at --samples 8 --seed 1:
# (command, model) -> sha256
MATRIX_SEED1_SHA256 = {
    ("report", "m3"): "7563271deff7b7778b1f52240a3bf7234dd0ed8d7fdd45bfea1dd5794779d42e",
    ("theorems", "m4"): "02ff2c584b80b3c47f9282707aaae282f8cd5e46fe6e8092144a155836bcef74",
}


# compat-table at --samples 8 --seed 0: (model, style) -> sha256
COMPAT_TABLE_SHA256 = {
    ("m1", "--json"): "655dcd1a520e1619fbab2ab3fd67427a8b93df3f4687cd201cff667592c33d7f",
    ("m1", "--table"): "6e7fb5b2c0e8f3f50f5a85e7dee9e874cfea10cd9a8c45b5d1e8ab2532d215ed",
    ("m3", "--json"): "4e5d5e5fc2821c88979851471b04bb6c961abfaf1f42ddec1ee85ce07427cfc1",
    ("m3", "--table"): "a0373231717c27f4a906ec3943e749b4b3d08780cd1577eedf5d573cea850d88",
    ("m5", "--json"): "b2e1705834d133e335a57646d55fc43a5a8551f0a360870fc25c84824bf3d7b8",
    ("m5", "--table"): "43ac439e491dd1c8b5f57b5be590246f03c64de674a628680c46f4cd73f48bc2",
}

# mackey at --samples 8 --seed 0: (model, e, f) -> (exit code, sha256); on
# m3 the search runs within the declared foci, on m1 and m5 over [0, u]
MACKEY_SHA256 = {
    ("m1", "1,0", "0,1"): (0, "34a8702b914213bb9b2a2f1b6be82b3ceb2c8e08136373136963ca714d2f63ef"),
    ("m1", "2,0", "0,1"): (1, "1781e612a18d7f0392646ce29b9090f845ec4060be36a510dc075d4ab3a68ee7"),
    ("m5", "1,-1", "0,2"): (0, "ed7dd510ce81d7b9ab34b604ca48bf79d8c2d2ef2c22f466328709e73948d2c9"),
    ("m3", "1/2,1/2,1/2,1/2", "1,0,0,0"): (
        0,
        "82e2c16e9c3d73968629a976d40c89e65d2419db5309e96e6219f9087dde28bb",
    ),
    ("m3", "1,0,0,0", "1,0,0,0"): (
        0,
        "c1cefff37fc11dd7f309bd14bc7ec87a00d1c6d133e54ab464425976889ff53c",
    ),
}

# Library reports at samples=8, seed=0, rendered with render_json.  The CLI
# runs the theorems only on bases that validate, so these pin the theorem
# fail paths: theorem_report on each corrupted fixture's declared base.
LIBRARY_CFG = CheckConfig(samples=8, seed=0)

FIXTURE_THEOREMS_SHA256 = {
    "corrupt_focus_outside_interval": "67756d43fba8302fe5a9d4a3019195f866e6cac2d448ac8f300eb15922fb1d42",
    "corrupt_matrix_half_focus": "eb4da2037db3f41cb535d346138cf460b11d1aee8ba6727fe8b8c8992f2617dc",
    "corrupt_matrix_missing_complement": "3d7fe0e40119d3b8b03098a06fb9fe0604c9b91f123dc1df94cd06b3b537e532",
    "corrupt_missing_closure": "699cb97feb056dce0ca9010d13992d7cfd9ee524b0149c91bab5d56e93087359",
    "corrupt_nonnormal_foci": "1f8f7ef33ba93c0f2f866b38df4a7cba1df756a16bf5f8f7d457323489917e5a",
    "corrupt_swapped_foci": "86f08a91583a3cbf1963bbf1bb59fb454ba91b49b1caff6fa6d965493d88dace",
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
    "z2-m5-5x-2": "d917fb4b107a752b3ad30eb9cb176560cf727b1e3244bac0eb8ddab64784aa69",
    "z2-std-3x5": "7c0d1b4a39c7ca7cb1a4e7a0c987733d0b05e58d3ac1d079ca3fafa231f0971e",
    "z3-std-1x1x1": "1abb7db0751e2dfd76ee570072c7f46c1a66865a02ee7da210239323277cd067",
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


@pytest.mark.parametrize("name,style", sorted(COMPAT_TABLE_SHA256))
def test_compat_table_bytes_pinned(capsys, name, style):
    code, digest = _sha256_of_run(capsys, "compat-table", MODELS_DIR / f"{name}.json", style)
    assert code == 0
    assert digest == COMPAT_TABLE_SHA256[name, style]


@pytest.mark.parametrize("name,e,f", sorted(MACKEY_SHA256))
def test_mackey_bytes_pinned(capsys, name, e, f):
    got = _sha256_of_run(capsys, "mackey", MODELS_DIR / f"{name}.json", e, f)
    assert got == MACKEY_SHA256[name, e, f]


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
    report = theorem_report(base)
    assert not report.ok
    assert _sha256(render_json(report)) == FIXTURE_THEOREMS_SHA256[stem]


@pytest.mark.parametrize("kind,dim", sorted(PROJECTION_BASE_SHA256))
def test_projection_base_bytes_pinned(kind, dim):
    check = validate_compression_base if kind == "validate" else theorem_report
    report = check(projection_base(MatrixModel(dim), LIBRARY_CFG))
    assert report.ok
    assert _sha256(render_json(report)) == PROJECTION_BASE_SHA256[kind, dim]

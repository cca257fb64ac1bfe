"""Cross-kind oracle: Z^n under the standard cone against diagonal matrices.

Z^n with unit (1, ..., 1), based on its coordinate blocks, is the diagonal
part of the n x n matrix model based on the 2^n diagonal 0/1 projections.
The two kinds reach their verdicts by different routes: the lattice decides
its laws on its interval, its cone generators or each focus's retraction
certificate, the matrix model from the conjugator of each focus.  Every
compat-table bit and every theorem clause must still come out the same,
and the laws both kinds derive per focus count the same foci.
"""

import json
from itertools import product

import pytest

from compbase import load_model, theorem_report
from compbase.cli import main
from conftest import corner_model

# the theorem clauses both kinds derive per focus, one case per focus
PER_FOCUS = ("family_shape", "omp_sharp", "omp_principal")


def _diag(bits):
    return [[b if i == j else 0 for j in range(len(bits))] for i, b in enumerate(bits)]


def _write_pair(n: int, tmp_path):
    """Paths of the lattice model and the matrix model of size n."""

    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps(corner_model((1,) * n)))
    matrix = tmp_path / "matrix.json"
    projections = [_diag(bits) for bits in product((0, 1), repeat=n)]
    matrix.write_text(json.dumps({"kind": "matrix", "dim": n, "projections": projections}))
    return lattice, matrix


def _compat_bits(path, capsys, diagonal) -> dict:
    """(p, q) as 0/1 tuples -> the battery conditions of compat-table."""

    assert main(["compat-table", str(path), "--samples", "8", "--seed", "0"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    return {(diagonal(r["p"]), diagonal(r["q"])): r["conditions"] for r in rows}


@pytest.mark.parametrize("n", (1, 2, 3))
def test_standard_cone_and_diagonal_matrices_agree(n, tmp_path, capsys):
    lattice, matrix = _write_pair(n, tmp_path)
    lattice_bits = _compat_bits(lattice, capsys, tuple)
    matrix_bits = _compat_bits(matrix, capsys, lambda m: tuple(m[i][i] for i in range(n)))
    assert len(lattice_bits) == 4**n
    assert lattice_bits == matrix_bits

    def clauses(path):
        _, base = load_model(path)
        return [
            (c.name, c.ok, c.status, c.checked if c.name in PER_FOCUS else None)
            for c in theorem_report(base).clauses
        ]

    lattice_clauses = clauses(lattice)
    assert lattice_clauses == clauses(matrix)
    assert {status for _, _, status, _ in lattice_clauses} == {"pass"}
    assert [checked for *_, checked in lattice_clauses if checked is not None] == [2**n] * 3

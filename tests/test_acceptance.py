"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single summary line on success; pytest -v shows one
pass/fail line per criterion either way.  Sample budgets here are the
contract: 1000 randomized cases per theorem sweep on matrix models, with
the battery criterion additionally bounded to a minute of wall clock.
"""

import json
import time
from itertools import product

import pytest

from compbase import (
    CheckConfig,
    MackeyTriple,
    MatrixModel,
    compat_battery,
    enumerate_retractions,
    is_normal_subalgebra,
    mackey_decompositions,
    matrix_model,
    projection_base,
    substructure_report,
    direct_product_report,
    theorem_report,
    validate_compression_base,
)
from compbase.cli import main
from conftest import BUNDLED, FIXTURES_DIR, LATTICE, MATRIX, MODELS_DIR

CFG = CheckConfig(samples=1000, seed=0)


def test_criterion_01_battery_agreement(bundled):
    started = time.monotonic()
    pairs = 0

    for name in ("m1", "m2"):
        _, base = bundled[name]
        for p in base.foci:
            for q in base.foci:
                rep = compat_battery(base, p, q)
                assert rep.agree, (name, p, q, rep.values)
                pairs += 1

    for name in MATRIX:
        _, base = bundled[name]
        for p in base.foci:
            for q in base.foci:
                assert compat_battery(base, p, q).agree, (name, p, q)
                pairs += 1

    for dim in (2, 3):
        base = projection_base(MatrixModel(dim))
        rng = CFG.rng(f"acceptance:battery:{dim}")
        for i in range(1000):
            if i % 3 == 0:
                p, q = matrix_model.draw_projection_pair(dim, rng, commuting=True)
            elif i % 3 == 1:
                p, q = matrix_model.draw_nested_projections(dim, rng)
            else:
                p, q = matrix_model.draw_projection_pair(dim, rng, commuting=False)
            rep = compat_battery(base, p, q)
            assert rep.agree, (dim, i, rep.values)
            pairs += 1

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"battery criterion took {elapsed:.1f}s"
    print(
        f"\ncriterion 1: eight-condition battery agrees on {pairs} pairs "
        f"(exhaustive finite + 2000 sampled) in {elapsed:.1f}s: PASS"
    )


def test_criterion_02_declared_base_validation(bundled):
    for name in BUNDLED:
        _, base = bundled[name]
        rep = validate_compression_base(base)
        assert rep.ok, (name, rep.first_failure())
        composition = next(c for c in rep.clauses if c.name == "composition_law")
        assert composition.status == "pass", name
        assert composition.checked >= 1, name
    print(
        "criterion 2: every bundled declared family passes the base laws, "
        "composition law exhaustive over admissible focus triples: PASS"
    )


def test_criterion_03_theorem_sweeps(bundled):
    for name in LATTICE:
        _, base = bundled[name]
        rep = theorem_report(base)
        assert rep.ok, (name, rep.first_failure())

    floors = (
        "kernel_complement_fixpoint",
        "absorption_equivalences",
        "commutant_absorption",
    )
    for dim in (2, 3):
        rep = theorem_report(projection_base(MatrixModel(dim), CFG))
        assert rep.ok, (dim, rep.first_failure())
        by_name = {c.name: c for c in rep.clauses}
        for clause in floors:
            assert by_name[clause].checked >= 1000, (dim, clause, by_name[clause].checked)
        omp_total = sum(c.checked for c in rep.clauses if c.name.startswith("omp_"))
        assert omp_total >= 1000, (dim, omp_total)
    print(
        "criterion 3: kernel exchange, absorption, commutant absorption and "
        "the focus poset laws hold with >= 1000 samples each at dims 2 and 3, "
        "exhaustively on the finite models: PASS"
    )


def test_criterion_04_retraction_census(bundled):
    model1, base1 = bundled["m1"]
    certs1 = enumerate_retractions(model1)
    assert len(certs1) == 4
    enumerated = {(c.focus, c.endo.matrix) for c in certs1}
    declared = {(p, base1.j(p).matrix) for p in base1.foci}
    assert declared == enumerated

    model2, base2 = bundled["m2"]
    certs2 = enumerate_retractions(model2)
    assert len(certs2) == 2

    for model, certs in ((model1, certs1), (model2, certs2)):
        assert is_normal_subalgebra(model, [c.focus for c in certs]).ok
    print(
        "criterion 4: retraction enumeration finds exactly the declared "
        "compressions (4 and 2) and their focus sets are normal: PASS"
    )


def test_criterion_05_substructures_and_products(bundled):
    reports = 0
    for name in BUNDLED:
        model, base = bundled[name]
        for v in base.foci:
            for kind in ("image", "commutant"):
                sub, _, rep = substructure_report(base, v, kind)
                assert rep.ok, (name, v, kind, rep.first_failure())
                ch = next(c for c in rep.clauses if c.name == "interval_characterization")
                if model.finite:
                    assert ch.status == "pass"
                reports += 1
            prep = direct_product_report(base, v)
            assert prep.ok, (name, v, prep.first_failure())
            names = {c.name for c in prep.clauses}
            assert {"pairing_recovers_element", "pairing_surjective"} <= names
            reports += 1
    print(
        f"criterion 5: {reports} substructure and product decompositions "
        "re-validate with zero failures over every declared focus: PASS"
    )


def brute_mackey(structure, e, f):
    """Independent oracle: scan all of E^3 for decompositions of (e, f)."""
    leq = structure.leq
    found = set()
    for e1, f1, d in product(structure.interval(), repeat=3):
        if e1 + d == e and f1 + d == f and leq(e1 + f1 + d, structure.unit):
            found.add(MackeyTriple(e1, f1, d))
    return found


def test_criterion_06_decomposition_oracle(bundled):
    pairs = 0
    for name in ("m1", "m2"):
        model = bundled[name][0]
        for e in model.interval():
            for f in model.interval():
                assert set(mackey_decompositions(model, e, f)) == brute_mackey(
                    model, e, f
                ), (name, e, f)
                pairs += 1
    print(
        f"criterion 6: decomposition search equals the independent cubic "
        f"scan on all {pairs} pairs: PASS"
    )


def test_criterion_07_negative_controls(capsys):
    expected = {
        "corrupt_swapped_foci": "family_member_compression",
        "corrupt_missing_closure": "foci_sub_effect_algebra",
        "corrupt_nonnormal_foci": "foci_normal_subalgebra",
        "corrupt_focus_outside_interval": "family_member_compression",
        "corrupt_matrix_half_focus": "foci_normal_subalgebra",
        "corrupt_matrix_missing_complement": "foci_sub_effect_algebra",
    }
    assert len(expected) >= 3
    for stem, clause in expected.items():
        code = main(
            ["validate", str(FIXTURES_DIR / f"{stem}.json"), "--samples", "30"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 1, stem
        assert doc["first_failure"] == clause, (stem, doc["first_failure"])
    with capsys.disabled():
        print(
            f"\ncriterion 7: all {len(expected)} corrupted fixtures exit 1 "
            "naming the violated clause: PASS"
        )


def test_criterion_08_deterministic_reports(tmp_path, capsys):
    outs = []
    for i in (1, 2):
        target = tmp_path / f"run{i}.json"
        code = main(
            [
                "report",
                str(MODELS_DIR / "m3.json"),
                "--samples",
                "80",
                "--seed",
                "5",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]
    print("criterion 8: identical config and seed give byte-identical reports: PASS")

"""The per-focus laws decided from each focus's retraction certificate.

family_shape, omp_sharp, omp_principal and interval_characterization are
derived at each focus p from compression.focus_premises: on a lattice
base, the retraction checks of the certificate the base keeps for p (and
for u - p).  These tests hold each derived clause to the sweep it replaced
(the full_* oracles in conftest) on lattice bases and on the restricted
base of every image and commutant: where every premise holds the two
verdicts agree, and otherwise the clause fails naming a premise, which is
no counterexample.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from compbase import Vec, load_model, theorem_report, validate_compression_base
from compbase import compatibility, compression
from conftest import (
    FIXTURES_DIR,
    LATTICE,
    LATTICE_FIXTURES,
    MODELS_DIR,
    corner_base,
    focus_substructures,
    full_family_shape,
    full_interval_characterization,
    full_omp_principal,
    full_omp_sharp,
    retraction_base,
    seeded_cones,
    with_restricted_bases,
)

NAMED = (*LATTICE, "z3-2x2x2", *LATTICE_FIXTURES)

# each focus law, with the sweep it replaced
FOCUS_LAWS = (
    (compatibility._family_shape_clause, full_family_shape),
    (lambda base: compatibility._omp_sharp(base, 0, None), full_omp_sharp),
    (lambda base: compatibility._omp_principal(base, 0, None), full_omp_principal),
)


def _base(source):
    """A fresh declared base: a bundled model, Z^3 with unit (2, 2, 2) based
    on its coordinate blocks, a fixture, or a seeded (rows, unit)."""

    if isinstance(source, tuple):
        return retraction_base(*source)
    if source in LATTICE:
        return load_model(MODELS_DIR / f"{source}.json")[1]
    if source in LATTICE_FIXTURES:
        return load_model(FIXTURES_DIR / f"{source}.json")[1]
    return corner_base((2, 2, 2))


def assert_derived(clause, premises, oracle, where):
    if all(c.ok for c in premises):
        assert clause.ok == oracle.ok, where
    else:
        assert not clause.ok and "premise" in clause.witness, where


@settings(max_examples=20, deadline=None)
@given(source=st.one_of(st.sampled_from(NAMED), seeded_cones()))
@example(source="m1")
@example(source="m2")
@example(source="m5")
@example(source="z3-2x2x2")
@example(source="corrupt_focus_outside_interval")
@example(source="corrupt_missing_closure")
@example(source="corrupt_nonnormal_foci")
@example(source="corrupt_swapped_foci")
def test_derived_focus_laws_agree_with_the_sweeps(source):
    for b in with_restricted_bases(_base(source)):
        premises = [c for p in b.foci for c in compression.focus_premises(b, p, focus=True)]
        for rule, oracle in FOCUS_LAWS:
            clause = rule(b)
            assert clause.checked == len(b.foci) or not clause.ok, (source, clause.name)
            assert_derived(clause, premises, oracle(b), (source, clause.name))
        for sub in focus_substructures(b):
            clause = compatibility._interval_characterization_clause(b, sub)
            comp = sub.kind == "commutant"
            premises = compression.focus_premises(b, sub.v, focus=True, comp=comp)
            oracle = full_interval_characterization(b, sub)
            assert_derived(clause, premises, oracle, (source, sub.kind, sub.v))


def test_validation_and_theorems_read_one_certificate_per_focus(monkeypatch):
    """01 and the theorems decide each focus's certificate once per base."""

    calls = []
    real = compression.retraction_certificate

    def counted(structure, endo, *args, **kwargs):
        calls.append(endo)
        return real(structure, endo, *args, **kwargs)

    monkeypatch.setattr(compression, "retraction_certificate", counted)
    base = _base("m5")
    assert validate_compression_base(base).ok
    assert theorem_report(base).ok
    assert len(calls) == len(base.foci)


def test_a_fixture_whose_certificates_fail_reads_premise_not_shown():
    """corrupt_swapped_foci exchanges J_(1,0) and J_(0,1), so each map's
    focus J(u) is the other focus: the laws derived at those foci fail
    naming declared_focus_matches, where the old sweeps of omp_sharp and
    omp_principal passed."""

    base = _base("corrupt_swapped_foci")
    for rule, oracle in FOCUS_LAWS[1:]:
        clause = rule(base)
        assert oracle(base).ok
        assert clause.witness == {"p": Vec((0, 1)), "premise": "declared_focus_matches"}
        assert clause.note.endswith("; decided from each retraction certificate")

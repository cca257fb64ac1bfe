"""The pair table of a declared compression base.

Each declared base computes, once per ordered focus pair, the sum p + q,
the composed map J_p after J_q and the compatibility battery, and keeps
them in its _memo and _pairs; every pair consumer reads them there, and a
restricted base reads its parent's sums and composed maps.  These tests pin
that the table changes no verdict (the pruned composition premise against
the full-product sweep, the common-focus lookup against map comparisons)
and that it is filled once per pair and never on an intensional base.
A declared base's validation and theorems open no sample stream.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import Counter

import pytest

from compbase import (
    CheckConfig,
    LatticeConeModel,
    SymMat,
    Vec,
    compat_battery,
    compose,
    load_model,
    projection_base,
    substructure_report,
    theorem_report,
    validate_compression_base,
    zero_endo,
)
from compbase import cli, compatibility, compression, linalg, matrix_model, models
from compbase.compression import base_from_family
from conftest import BUNDLED, FIXTURES_DIR, MATRIX, MODELS_DIR, full_composition_clause
from test_golden import MATRIX_SEED1_SHA256

CFG = CheckConfig(samples=8, seed=1)
FIXTURES = sorted(p.stem for p in FIXTURES_DIR.glob("*.json"))


def _fresh(name):
    path = MODELS_DIR / f"{name}.json" if name in BUNDLED else FIXTURES_DIR / f"{name}.json"
    return load_model(path)


def _restricted(base):
    for v in base.foci:
        for build in (compatibility.image_substructure, compatibility.commutant_substructure):
            yield compatibility.restricted_base(base, build(base, v))


def _composition_cases():
    cases = [(name, _fresh(name)[1]) for name in BUNDLED + tuple(FIXTURES)]
    for name in MATRIX:
        _, base = _fresh(name)
        cases += [(f"{name}/{i}", rb) for i, rb in enumerate(_restricted(base))]
    return cases


def _loose_focus_base():
    """Z^2 under the standard cone, unit (1, 1), with the foci (-1, 1), 0 and
    (1, -1), each carrying the zero map.  (1, -1) and (-1, 1) are not
    positive: the triple ((1, -1), (1, -1), (-1, 1)) has p + q + r <= u
    while p + q is not below u, so only the fallback of the pruned premise
    reaches it."""

    model = LatticeConeModel(2, ((1, 0), (0, 1)), Vec((1, 1)))
    foci = (Vec((-1, 1)), Vec((0, 0)), Vec((1, -1)))
    return base_from_family(model, [(f, zero_endo(model)) for f in foci])


COMPOSITION_CASES = _composition_cases() + [("loose_focus", _loose_focus_base())]


@pytest.mark.parametrize(
    "label,base", COMPOSITION_CASES, ids=[label for label, _ in COMPOSITION_CASES]
)
def test_pruned_composition_matches_full_sweep(label, base):
    got = compression._composition_clause(base)
    want = full_composition_clause(base)
    assert (got.status, got.checked, got.witness, got.items, got.note) == (
        want.status,
        want.checked,
        want.witness,
        want.items,
        want.note,
    )


def test_loose_focus_base_needs_the_fallback():
    """Without the fallback the pruned premise would skip a triple the full
    sweep counts: the full sweep fails after 4 triples there, not 3."""

    base = _loose_focus_base()
    leq, unit = base.structure.leq, base.structure.unit
    skipped = [
        (p, q, r)
        for p in base.foci
        for q in base.foci
        for r in base.foci
        if leq(p + q + r, unit) and not leq(p + q, unit)
    ]
    assert skipped and all(not base.structure.is_positive(r) for _, _, r in skipped)
    want = full_composition_clause(base)
    assert (want.status, want.checked) == ("fail", 4)


def test_pair_table_fills_each_pair_once(monkeypatch):
    """validate_compression_base, theorem_report and compat-table on m4's
    declared base run the battery body and compose each ordered pair of
    its maps at most once."""

    model, base = _fresh("m4")
    batteries = Counter()
    composed = Counter()
    focus_of = {id(base.j(p)): p for p in base.foci}
    real_battery = compatibility._battery
    real_compose = compose

    def counted_battery(b, p, q):
        if b is base:
            batteries[p, q] += 1
        return real_battery(b, p, q)

    def counted_compose(a, b):
        if id(a) in focus_of and id(b) in focus_of:
            composed[focus_of[id(a)], focus_of[id(b)]] += 1
        return real_compose(a, b)

    monkeypatch.setattr(compatibility, "_battery", counted_battery)
    for module in (models, compression, compatibility):
        monkeypatch.setattr(module, "compose", counted_compose)

    assert validate_compression_base(base).ok
    assert theorem_report(base).ok
    fields: dict = {}
    cli._compat_table(argparse.Namespace(), model, base, CFG, {}, fields)
    assert "first_failure" not in fields
    n = len(base.foci) ** 2
    assert len(batteries) == n and set(batteries.values()) == {1}
    assert composed and set(composed.values()) == {1}
    kept = [*base._memo, *base._pairs]
    assert {key[0] for key in kept if isinstance(key, tuple)} >= {
        "sum",
        "compose",
        "battery",
        "focus_maps",
    }


def test_matrix_facts_are_decided_once():
    """theorem_report and the substructure reports of a fresh declared m4
    base: each image J_p(q) of a focus q is applied once, from the pair
    table (apart from the applies a substructure makes as its own
    projector, J_v on an image, and a certificate's J(u)); each u - p is
    subtracted once per base; is_projection runs once per distinct matrix,
    fewer than CACHE_SIZE being in play, and is_psd at most once per
    distinct order question (a <= b, or 0 <= g for is_positive)."""

    is_projection = matrix_model.is_projection
    for memo in (models._matrix_leq, is_projection):
        getattr(memo, "cache_clear", lambda: None)()
    _, base = _fresh("m4")
    focus_of = {id(base.j(p)): p for p in base.foci}
    projector_uses = {"is_member", "project", "retraction_certificate"}
    code = {
        "apply": models.Endomorphism.apply.__code__,
        "sub": SymMat.__sub__.__code__,
        "complement": compression.CompressionBase.complement.__code__,
        "psd": linalg.is_psd.__code__,
        "projection": getattr(is_projection, "__wrapped__", is_projection).__code__,
        "leq": models.MatrixModel.leq.__code__,
        "positive": models.MatrixModel.is_positive.__code__,
    }
    counts = {name: Counter() for name in ("apply", "sub", "psd", "projection", "leq")}

    def profile(frame, event, arg):
        if event != "call":
            return
        f_code, local = frame.f_code, frame.f_locals
        if f_code is code["apply"]:
            j, g = id(local["self"]), local["g"]
            caller = frame.f_back.f_code.co_name
            if j in focus_of and g in base.foci and caller not in projector_uses:
                counts["apply"][focus_of[j], g] += 1
        elif f_code is code["sub"]:
            outer = frame.f_back
            for _ in range(3):  # complement, or its build under kept
                if outer.f_code is code["complement"]:
                    counts["sub"][id(outer.f_locals["self"]), local["other"]] += 1
                    break
                outer = outer.f_back
        elif f_code is code["psd"]:
            counts["psd"][local["m"]] += 1
        elif f_code is code["projection"]:
            counts["projection"][local["p"]] += 1
        elif f_code is code["leq"]:
            counts["leq"][local["a"], local["b"]] += 1
        elif f_code is code["positive"]:
            counts["leq"][local["self"].zero, local["g"]] += 1

    sys.setprofile(profile)
    try:
        assert theorem_report(base).ok
        for v in base.foci:
            for kind in ("image", "commutant"):
                assert substructure_report(base, v, kind)[2].ok
    finally:
        sys.setprofile(None)
    n = len(base.foci)
    assert len(counts["apply"]) == n * n and set(counts["apply"].values()) == {1}
    assert len(counts["sub"]) == n and set(counts["sub"].values()) == {1}
    assert set(counts["projection"].values()) == {1}
    assert len(counts["projection"]) < matrix_model.CACHE_SIZE
    assert sum(counts["psd"].values()) <= len(counts["leq"])


def test_restricted_bases_read_the_parent_pair_table(monkeypatch, capsys):
    """report m3 at seed 1 composes each ordered focus pair once for the
    declared base and all its restricted bases together: a restricted base
    holds its parent's maps, so it reads the parent's composed maps.  The
    report bytes are the pinned ones."""

    builds = Counter()
    real_kept = compression.CompressionBase.kept

    def counted_kept(self, key, build, *memo):
        if self.foci is not None and isinstance(key, tuple) and key[0] == "compose":

            def counted_build():
                builds[key] += 1
                return build()

            return real_kept(self, key, counted_build, *memo)
        return real_kept(self, key, build, *memo)

    monkeypatch.setattr(compression.CompressionBase, "kept", counted_kept)
    argv = ["report", str(MODELS_DIR / "m3.json"), "--samples", "8", "--seed", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == MATRIX_SEED1_SHA256["report", "m3"]
    # 62 distinct (p, q) are composed on this run, the base of all
    # projections included; the declared bases build each of theirs once
    assert builds and set(builds.values()) == {1}
    assert sum(builds.values()) <= 62


def test_intensional_base_keeps_no_pair_table():
    model, _ = _fresh("m4")
    base = projection_base(model, CFG)
    assert theorem_report(base).ok
    p = q = model.unit
    assert compat_battery(base, p, q).compatible
    assert base.composed(p, q) is not base.composed(p, q)
    assert base._memo == {} and base._pairs == {}


@pytest.mark.parametrize("name", ("m1", "m3", "m4"))
def test_declared_base_opens_no_stream(monkeypatch, name):
    """validate_compression_base and theorem_report take every universe of a
    declared base from its foci, so neither opens a sample stream."""

    _, base = _fresh(name)
    opened = []
    real_rng = CheckConfig.rng

    def counted_rng(self, tag=""):
        opened.append(tag)
        return real_rng(self, tag)

    monkeypatch.setattr(CheckConfig, "rng", counted_rng)
    assert validate_compression_base(base).ok
    assert theorem_report(base).ok
    assert opened == []


@pytest.mark.parametrize("name", MATRIX)
def test_common_focus_lookup_matches_map_comparison(name):
    """exists_common_focus on a restricted base is one lookup of the
    restricted J_p J_q among the restricted J_s; compare it with composing
    both maps with the projector and comparing matrices."""

    _, base = _fresh(name)
    for rb in _restricted(base):
        sub = rb.structure
        restricted = [compose(rb.j(s), sub.projector) for s in rb.foci]
        keys = {(m.matrix, m.den) for m in restricted}
        for p in rb.foci:
            for q in rb.foci:
                pq = compose(compose(rb.j(p), rb.j(q)), sub.projector)
                want = (pq.matrix, pq.den) in keys
                assert compat_battery(rb, p, q).values["exists_common_focus"] == want


def test_substructure_restricts_each_map_once():
    _, base = _fresh("m3")
    v = base.foci[1]
    sub = compatibility.image_substructure(base, v)
    a = base.j(base.foci[2])
    assert sub.restrict(a) is sub.restrict(a)
    assert models.map_key(sub, a) == (sub.restrict(a).matrix, sub.restrict(a).den)
    assert models.map_key(base.structure, a) == (a.matrix, a.den)


def test_matrix_unit_is_built_once_per_dim():
    model, _ = _fresh("m4")
    assert model.unit is model.unit
    assert model.unit == SymMat.identity(model.dim)


@pytest.mark.parametrize(
    "name", ("corrupt_matrix_missing_complement", "corrupt_missing_closure")
)
def test_theorems_fail_a_clause_when_a_complement_escapes(name):
    """A focus whose complement u - p is no focus fails the clauses that need
    the complement's map, instead of raising MembershipError."""

    _, base = _fresh(name)
    rep = theorem_report(base)
    failed = {c.name: c.witness for c in rep.clauses if not c.ok}
    for clause in ("kernel_complement_fixpoint", "commutant_absorption"):
        assert failed[clause]["reason"] == "complement escapes the base"
        assert base.complement(failed[clause]["focus"]) not in base.foci

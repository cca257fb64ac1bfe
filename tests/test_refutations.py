"""Negative controls for refutation branches that no sound base reaches.

On the bundled models and fixtures each of these laws holds, or fails at
an earlier branch, so the branches below would go unexercised.  Each test
builds a small unsound base (a broken map, a missing focus, or a battery
written into the base's memo, as the mirror control of battery_agreement
does) whose law fails at exactly one branch, and pins the witness or the
error of that branch.  Where the branch is removed, the law passes or
fails later with another witness or error, so each pin tells them apart.
"""

from __future__ import annotations

import pytest

from compbase import (
    BATTERY_CONDITIONS,
    CompatReport,
    Endomorphism,
    LatticeConeModel,
    MatrixModel,
    MeetUndefinedError,
    Substructure,
    SymMat,
    Vec,
    base_from_family,
    commutant_absorption_check,
    conjugation_endo,
    is_direct,
    is_sub_effect_algebra,
    meet,
)
from compbase import compatibility
from conftest import full_family_shape

Z2 = LatticeConeModel(2, ((1, 0), (0, 1)), Vec((1, 1)))
ZERO, P, Q, U = Vec((0, 0)), Vec((1, 0)), Vec((0, 1)), Vec((1, 1))
IDENTITY = ((1, 0), (0, 1))
KILL = ((0, 0), (0, 0))
ONTO_P = ((1, 0), (0, 0))
ONTO_Q = ((0, 0), (0, 1))
DOUBLE = ((2, 0), (0, 2))


def lattice_base(*family):
    """The declared base of Z^2 (standard cone, unit (1, 1)) with the given
    (focus, matrix) pairs, sound or not."""

    return base_from_family(Z2, [(f, Endomorphism(Z2, m)) for f, m in family])


def with_battery(base, p, q, values):
    """The base, with the battery of (p, q) written into its memo."""

    base._memo[("battery", p, q)] = CompatReport(p, q, tuple(zip(BATTERY_CONDITIONS, values)))
    return base


def test_absorption_refutes_a_compatible_positive_not_dominated():
    # J_p + J_{u-p} = 2I - I = I fixes every g, so p is compatible with
    # itself, and J_p(p) = 2p is not below p
    base = lattice_base((P, DOUBLE), (Q, ((-1, 0), (0, -1))))
    clause = commutant_absorption_check(base, P, P)
    assert not clause.ok
    assert clause.witness == {"p": P, "g": P, "direction": "compatible_positive_not_dominated"}


def test_meet_refuses_a_battery_that_disagrees():
    base = lattice_base((ZERO, KILL), (P, ONTO_P), (Q, ONTO_Q), (U, IDENTITY))
    with_battery(base, P, Q, [True] + [False] * 7)
    with pytest.raises(MeetUndefinedError, match="battery conditions disagree"):
        meet(base, P, Q)


@pytest.mark.parametrize(
    "family, p, q, error",
    [
        # J_p(q) = 0 but J_q(p) = p
        (((P, ONTO_P), (Q, IDENTITY)), P, Q, "the two one-sided values differ"),
        # both one-sided values are u, below neither focus
        (((P, ((1, 1), (1, 1))), (Q, ((1, 1), (1, 1)))), P, Q, "value is not a lower bound"),
        # J_u(u) = 0, and the effect (0, 1) lies below u but not below 0
        (((U, KILL),), U, U, "not shown to be the greatest lower bound"),
        # the meet 0 of p and q is no focus
        (((P, ONTO_P), (Q, ONTO_Q)), P, Q, "value escapes the base"),
        # the zero focus carries the identity, not J_p after J_q = 0
        (((ZERO, IDENTITY), (P, ONTO_P), (Q, ONTO_Q)), P, Q, "composed map is not the meet's map"),
    ],
    ids=["one_sided", "lower_bound", "greatest", "escapes", "composed_map"],
)
def test_meet_refuses_a_violated_meet_law(family, p, q, error):
    base = with_battery(lattice_base(*family), p, q, [True] * 8)
    with pytest.raises(RuntimeError, match=error):
        meet(base, p, q)


def test_omp_bounded_needs_the_zero_focus():
    base = lattice_base((P, ONTO_P), (Q, ONTO_Q), (U, IDENTITY))
    clause = compatibility._omp_bounded(base, 1, None)
    assert not clause.ok
    assert clause.witness == {"missing": "zero or unit"}


def test_omp_orthogonal_join_needs_the_sum_as_a_focus():
    base = lattice_base((ZERO, KILL), (P, ONTO_P), (Q, ONTO_Q))
    clause = compatibility._omp_orthogonal_join(base, 1, None)
    assert not clause.ok
    assert clause.witness == {"p": Q, "q": P}


def test_zero_and_unit_maps_need_the_zero_focus():
    base = lattice_base((P, ONTO_P), (Q, ONTO_Q), (U, IDENTITY))
    clause = compatibility._zero_unit_clause(base)
    assert not clause.ok
    assert clause.witness == {"missing": "zero or unit focus"}


def test_family_shape_fails_a_map_that_is_not_idempotent_on_its_certificate():
    """J_u = 2I sends u to 2u, outside the interval, so family_shape, now
    derived from each focus's certificate, fails naming that premise; the
    sweep it replaced refutes the map as not idempotent."""

    base = lattice_base((ZERO, KILL), (U, DOUBLE))
    clause = compatibility._family_shape_clause(base)
    assert not clause.ok
    assert clause.witness == {"focus": U, "premise": "focus_in_interval"}
    assert full_family_shape(base).witness == {"focus": U, "law": "idempotent"}


def test_is_direct_names_the_unit_when_it_does_not_commute():
    """The image of v = diag(1, 1, 0) in the 3x3 matrices, and J_p for the
    projection p onto (1, 0, 1): p commutes neither with the first projected
    basis member E11 nor with v, so the unit itself is the witness."""

    model = MatrixModel(3)
    v = SymMat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    p = SymMat.from_rows([["1/2", 0, "1/2"], [0, 0, 0], ["1/2", 0, "1/2"]])
    sub = Substructure(model, "image", v, v, conjugation_endo(model, v))
    clause = is_direct(sub, conjugation_endo(model, p))
    assert not clause.ok
    assert clause.witness == {"effect": v}


def test_sub_effect_algebra_needs_the_unit():
    clause = is_sub_effect_algebra(Z2, [ZERO, P])
    assert not clause.ok
    assert clause.witness == {"check": "contains_unit"}

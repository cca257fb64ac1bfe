"""Exact models of unital groups carrying compression bases.

Two concrete model families: finite lattice cones over the integers, where
every law is decided by exhaustive enumeration, and symmetric rational
matrices under the positive-semidefinite order, where compressions are
conjugations by projections.  There the laws of a declared base, its
substructures and its direct products are derived exactly from exactly
checked premises on its conjugators, and the base of all projections is
spot checked on seeded samples.  Matrices are integer rows over one
denominator; there is not a float in the package.
"""

from .compatibility import (
    BATTERY_CONDITIONS,
    CompatReport,
    MeetUndefinedError,
    Substructure,
    commutant_absorption_check,
    commutant_substructure,
    compat_battery,
    direct_product_report,
    image_substructure,
    in_commutant,
    meet,
    morphism_report,
    omp_report,
    restricted_base,
    substructure_report,
    theorem_report,
)
from .compression import (
    CompressionBase,
    RetractionCertificate,
    base_from_family,
    base_from_projections,
    compressible_group_report,
    direct_compression_base,
    enumerate_retractions,
    is_compression,
    is_direct,
    kernel_complement_check,
    projection_base,
    retraction_certificate,
    trivial_base,
    validate_compression_base,
)
from .config import CheckConfig
from .effect_algebra import (
    MackeyTriple,
    MembershipError,
    center,
    is_effect,
    is_mackey_compatible,
    is_normal_subalgebra,
    is_sub_effect_algebra,
    mackey_decompositions,
)
from .elements import SymMat, Vec, conjugate
from .matrix_model import is_projection, random_effect, random_projection
from .modelfile import ModelFormatError, load_model
from .models import (
    Endomorphism,
    LatticeConeModel,
    MatrixModel,
    NotEnumerableError,
    UnboundedIntervalError,
    compose,
    conjugation_endo,
    endo_equal,
    endo_from_int_matrix,
    identity_endo,
    validate_unital_group,
    zero_endo,
)
from .reporting import Clause, Report, jsonable, render_json, render_table

__all__ = [
    "BATTERY_CONDITIONS",
    "CheckConfig",
    "Clause",
    "CompatReport",
    "CompressionBase",
    "Endomorphism",
    "LatticeConeModel",
    "MackeyTriple",
    "MatrixModel",
    "MeetUndefinedError",
    "MembershipError",
    "ModelFormatError",
    "NotEnumerableError",
    "Report",
    "RetractionCertificate",
    "Substructure",
    "SymMat",
    "UnboundedIntervalError",
    "Vec",
    "base_from_family",
    "base_from_projections",
    "center",
    "commutant_absorption_check",
    "commutant_substructure",
    "compat_battery",
    "compose",
    "compressible_group_report",
    "conjugate",
    "conjugation_endo",
    "direct_compression_base",
    "direct_product_report",
    "endo_equal",
    "endo_from_int_matrix",
    "enumerate_retractions",
    "identity_endo",
    "image_substructure",
    "in_commutant",
    "is_compression",
    "is_direct",
    "is_effect",
    "is_mackey_compatible",
    "is_normal_subalgebra",
    "is_projection",
    "is_sub_effect_algebra",
    "jsonable",
    "kernel_complement_check",
    "load_model",
    "mackey_decompositions",
    "meet",
    "morphism_report",
    "omp_report",
    "projection_base",
    "random_effect",
    "random_projection",
    "render_json",
    "render_table",
    "restricted_base",
    "retraction_certificate",
    "substructure_report",
    "theorem_report",
    "trivial_base",
    "validate_compression_base",
    "validate_unital_group",
    "zero_endo",
]

"""Legendrian contact homology from plat fronts.

Subpackages: freealg (exact noncommutative arithmetic), plat (front
diagrams and classical invariants), dga (disk counts and serialization),
chalg (characteristic algebras and certificates), reps (finite-dimensional
representations and augmentations), cli (command line entry point).
"""

from .chalg import (
    CertificateError,
    RelationSet,
    adjoin_and_derive,
    char_algebra,
    parse_cert_directives,
    parse_certificate,
    verify_certificate,
    verify_unit,
)
from .dga import (
    DGA,
    check_d_squared,
    check_homogeneous,
    compute_dga,
    deserialize,
    dga_diag_equivalent,
    serialize,
    specialize_dga,
    torus_dga,
)
from .freealg import F2, ZT, GradedPresentation, GradingError, NcPoly, parse
from .plat import build_front, classical_invariants, maslov_grading, parse_plat
from .reps import (
    MatRepAssignment,
    find_augmentations,
    mat2_presentation_check,
    search_matrix_rep,
    torus_rep,
    verify_matrix_rep,
    verify_R_relations,
)

__all__ = [
    "F2",
    "ZT",
    "GradedPresentation",
    "GradingError",
    "NcPoly",
    "parse",
    "parse_plat",
    "build_front",
    "classical_invariants",
    "maslov_grading",
    "DGA",
    "compute_dga",
    "torus_dga",
    "check_d_squared",
    "check_homogeneous",
    "specialize_dga",
    "dga_diag_equivalent",
    "serialize",
    "deserialize",
    "RelationSet",
    "char_algebra",
    "CertificateError",
    "parse_certificate",
    "parse_cert_directives",
    "verify_certificate",
    "verify_unit",
    "adjoin_and_derive",
    "MatRepAssignment",
    "find_augmentations",
    "search_matrix_rep",
    "verify_matrix_rep",
    "torus_rep",
    "verify_R_relations",
    "mat2_presentation_check",
]
__version__ = "0.1.0"

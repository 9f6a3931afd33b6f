"""Exact symbolic connections and curvature on hypersurface quotient rings.

The package works over the Gaussian rationals: polynomials reduce to
canonical normal forms modulo a single hypersurface equation, matrices
over the quotient carry idempotent presentations of projective modules,
derivations differentiate them, and curvature comes out as an exact
commutator with trace obstructions split over image and kernel.
"""

from .polycore import (
    GaussianRational,
    Monomial,
    MonomialOrder,
    ParseError,
    Polynomial,
    divide_remainder,
    parse,
)
from .quotient import QuotientRing, RingElement, nf
from .matring import CharPoly, MatrixA, char_poly, commutator, determinant, rank_at_point, trace
from .deriv import Derivation, TangencyError, apply, apply_to_matrix, bracket, koszul_derivations
from .conn import (
    CurvatureReport,
    DeviationReport,
    PresentationError,
    ProjectivePresentation,
    connection_apply,
    curvature_matrix,
    curvature_report,
    deviation_report,
    is_flat_pair,
    make_presentation,
    modified_curvature,
    operator_commutator_matrix,
    trace_over_image,
    trace_over_kernel,
)
from .catalog import (
    EllipsoidCotangent,
    SphereLineBundle,
    build_ellipsoid_cotangent,
    build_sphere_line_bundle,
    reference_expected,
)

__version__ = "0.1.0"

__all__ = [
    "CharPoly",
    "CurvatureReport",
    "Derivation",
    "DeviationReport",
    "EllipsoidCotangent",
    "GaussianRational",
    "MatrixA",
    "Monomial",
    "MonomialOrder",
    "ParseError",
    "Polynomial",
    "PresentationError",
    "ProjectivePresentation",
    "QuotientRing",
    "RingElement",
    "SphereLineBundle",
    "TangencyError",
    "apply",
    "apply_to_matrix",
    "bracket",
    "build_ellipsoid_cotangent",
    "build_sphere_line_bundle",
    "char_poly",
    "commutator",
    "connection_apply",
    "curvature_matrix",
    "curvature_report",
    "determinant",
    "deviation_report",
    "divide_remainder",
    "is_flat_pair",
    "koszul_derivations",
    "make_presentation",
    "modified_curvature",
    "nf",
    "operator_commutator_matrix",
    "parse",
    "rank_at_point",
    "reference_expected",
    "trace",
    "trace_over_image",
    "trace_over_kernel",
    "__version__",
]

"""Exact symbolic connections and curvature on hypersurface quotient rings.

The package works over the Gaussian rationals: polynomials reduce to
canonical normal forms modulo a single hypersurface equation, matrices
over the quotient carry idempotent presentations of projective modules,
derivations differentiate them, and curvature comes out as an exact
commutator with trace obstructions split over image and kernel.
"""

from .polycore import (
    GaussianRational,
    MonomialOrder,
    ParseError,
    Polynomial,
    divide_remainder,
    parse,
)
from .quotient import QuotientRing, RingElement
from .matring import CharPoly, MatrixA, commutator
from .deriv import Derivation, TangencyError, bracket, koszul_derivations
from .conn import (
    CurvatureReport,
    DeviationReport,
    PresentationError,
    ProjectivePresentation,
    connection_apply,
    connection_matrix,
    curvature_matrix,
    curvature_report,
    deviation_report,
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
    "MonomialOrder",
    "ParseError",
    "Polynomial",
    "PresentationError",
    "ProjectivePresentation",
    "QuotientRing",
    "RingElement",
    "SphereLineBundle",
    "TangencyError",
    "bracket",
    "build_ellipsoid_cotangent",
    "build_sphere_line_bundle",
    "commutator",
    "connection_apply",
    "connection_matrix",
    "curvature_matrix",
    "curvature_report",
    "deviation_report",
    "divide_remainder",
    "koszul_derivations",
    "make_presentation",
    "modified_curvature",
    "operator_commutator_matrix",
    "parse",
    "reference_expected",
    "trace_over_image",
    "trace_over_kernel",
    "__version__",
]

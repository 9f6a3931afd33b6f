"""Constructors for the two bundled example families.

Both families live on a hypersurface f = x^a + y^b + z^c - 1 and take
their tangent derivations from one generic construction, the Koszul fields
f_j*d/dx_i - f_i*d/dx_j of `deriv.koszul_derivations`. The first family
presents the cotangent-style module on x^p + y^q + z^r - 1 by the
Euler-vector projector Phi = I - grad(f)*E^T with E = (x/p, y/q, z/r),
whose kernel is spanned by grad(f). The second presents a line bundle on
x^(2p) + y^(2q) + z^(2r) - 1 through an involution-derived idempotent,
with the Koszul fields scaled by 1/2, 1/2 and -1/2.

`reference_expected` stores the worked displays for both families as
transcription templates, kept separate from the constructions so golden
tests compare computation against transcription. Ids ending in "-printed"
are verbatim transcriptions of the distributed displays, including two
known misprints; "-corrected" ids carry the value consistent with direct
computation, confirmed independently with a second computer algebra
system. The "trace-*-image" ids are likewise second-system-confirmed
values, stored as data with the printed counterparts kept alongside. The
sphere's displays and traces cover (1, 1, 1) only; they are one table,
built the first time a process reads it, over the ring of that moment.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from types import MappingProxyType

from .polycore import GaussianRational, Polynomial
from .quotient import QuotientRing
from .matring import MatrixA
from .deriv import koszul_derivations
from .conn import Record, make_presentation

_NAMES = ("x", "y", "z")


def _poly(*terms) -> Polynomial:
    """Build a polynomial in x, y, z from (coefficient, ex, ey, ez) rows."""
    data: dict[tuple[int, int, int], object] = {}
    for coeff, ex, ey, ez in terms:
        key = (ex, ey, ez)
        if key in data:
            data[key] = data[key] + coeff
        else:
            data[key] = coeff
    return Polynomial(_NAMES, data)


_I = GaussianRational(0, 1)


# the smallest p, q and r each family takes; the cli's bounds read it too
MINIMUM = MappingProxyType({"ellipsoid": 2, "sphere": 1})


def _check_parameters(example: str, p: int, q: int, r: int):
    minimum = MINIMUM[example]
    for value in (p, q, r):
        if not isinstance(value, int) or value < minimum:
            raise ValueError(f"parameters must be integers >= {minimum}, got {(p, q, r)}")


class EllipsoidCotangent(Record):
    """The rank-3 presentation on x^p + y^q + z^r - 1 with its three Koszul
    derivations and dFvec, the kernel generator grad(f)."""

    __slots__ = ("p", "q", "r", "ring", "presentation", "derivations", "dFvec")


class SphereLineBundle(Record):
    """The rank-2 line-bundle presentation on x^(2p) + y^(2q) + z^(2r) - 1.

    The involution P squares to the identity, M = (P + I)/2 is idempotent,
    and the line bundle is the kernel of M, presented by the idempotent
    I - M (the unique idempotent-compatible choice; recorded in reports).
    square_defect is the P^2 - I that the builder checked, kept for reports.
    """

    __slots__ = ("p", "q", "r", "ring", "involution", "idempotent", "presentation",
                 "derivations", "square_defect")


@lru_cache(maxsize=1)
def _fermat_ring(a: int, b: int, c: int) -> QuotientRing:
    """The quotient ring of x^a + y^b + z^c - 1. The last one made is kept, so
    a verify's build and the ellipsoid goldens it reads share one ring object."""
    return QuotientRing(_poly((1, a, 0, 0), (1, 0, b, 0), (1, 0, 0, c), (-1, 0, 0, 0)))


def build_ellipsoid_cotangent(p: int, q: int, r: int) -> EllipsoidCotangent:
    """Build the cotangent-style example; all invariants verified here.

    f is weighted homogeneous minus 1, so the Euler field E = (x/p, y/q, z/r)
    gives E(f) = f + 1, which is 1 in A. Hence Phi = I - grad(f)*E^T is
    idempotent and annihilates grad(f), the kernel generator dFvec; the
    derivations are the Koszul fields of f.
    """
    _check_parameters("ellipsoid", p, q, r)
    ring = _fermat_ring(p, q, r)
    grad = [ring.modulus.partial_derivative(k) for k in range(3)]
    euler = [Polynomial.variable(ring.names, k) * Fraction(1, w) for k, w in enumerate((p, q, r))]
    m = MatrixA.from_rows(
        ring, [[int(i == j) - grad[i] * euler[j] for j in range(3)] for i in range(3)]
    )
    dfvec = tuple(ring.element(g) for g in grad)
    presentation = make_presentation(ring, m, dfvec)
    return EllipsoidCotangent(p, q, r, ring, presentation, koszul_derivations(ring), dfvec)


def build_sphere_line_bundle(p: int, q: int, r: int) -> SphereLineBundle:
    """Build the line-bundle example; P^2 - I is verified and kept."""
    _check_parameters("sphere", p, q, r)
    ring = _fermat_ring(2 * p, 2 * q, 2 * r)
    # (2,1) entry is forced to y^q - i*z^r by P^2 = I; see reference_expected("sphere", "P-printed")
    involution = MatrixA.from_rows(
        ring,
        [
            [_poly((1, p, 0, 0)), _poly((1, 0, q, 0), (_I, 0, 0, r))],
            [_poly((1, 0, q, 0), (-_I, 0, 0, r)), _poly((-1, p, 0, 0))],
        ],
    )
    identity = MatrixA.identity(ring, 2)
    defect = involution * involution - identity
    if not defect.is_zero:
        raise ValueError(f"involution square defect: {defect}")
    half = Fraction(1, 2)
    idempotent = (involution + identity).scale(half)
    pres = make_presentation(ring, identity - idempotent)
    k12, k13, k23 = koszul_derivations(ring)
    derivations = (k12 * half, k13 * half, k23 * -half)
    return SphereLineBundle(p, q, r, ring, involution, idempotent, pres, derivations, defect)


def _ellipsoid_expected(check_id: str, p: int, q: int, r: int):
    ring = _fermat_ring(p, q, r)
    if check_id == "M":
        return MatrixA.from_rows(
            ring,
            [
                [
                    _poly((1, 0, 0, 0), (-1, p, 0, 0)),
                    _poly((Fraction(-p, q), p - 1, 1, 0)),
                    _poly((Fraction(-p, r), p - 1, 0, 1)),
                ],
                [
                    _poly((Fraction(-q, p), 1, q - 1, 0)),
                    _poly((1, 0, 0, 0), (-1, 0, q, 0)),
                    _poly((Fraction(-q, r), 0, q - 1, 1)),
                ],
                [
                    _poly((Fraction(-r, p), 1, 0, r - 1)),
                    _poly((Fraction(-r, q), 0, 1, r - 1)),
                    _poly((1, 0, 0, 0), (-1, 0, 0, r)),
                ],
            ],
        )
    if check_id == "dFvec":
        dfvec = (_poly((p, p - 1, 0, 0)), _poly((q, 0, q - 1, 0)), _poly((r, 0, 0, r - 1)))
        return tuple(ring.element(v) for v in dfvec)
    if check_id == "d1M":
        return MatrixA.from_rows(
            ring,
            [
                [
                    _poly((-p * q, p - 1, q - 1, 0)),
                    _poly((-p * (p - 1), p - 2, q, 0), (Fraction(p * p, q), 2 * (p - 1), 0, 0)),
                    _poly((Fraction(-q * p * (p - 1), r), p - 2, q - 1, 1)),
                ],
                [
                    _poly((Fraction(-q * q, p), 0, 2 * (q - 1), 0), (q * (q - 1), p, q - 2, 0)),
                    _poly((p * q, p - 1, q - 1, 0)),
                    _poly((Fraction(p * q * (q - 1), r), p - 1, q - 2, 1)),
                ],
                [
                    _poly((Fraction(-q * r, p), 0, q - 1, r - 1)),
                    _poly((Fraction(p * r, q), p - 1, 0, r - 1)),
                    _poly(),
                ],
            ],
        )
    if check_id == "d2M":
        return MatrixA.from_rows(
            ring,
            [
                [
                    _poly((-p * r, p - 1, 0, r - 1)),
                    _poly((Fraction(-r * p * (p - 1), q), p - 2, 1, r - 1)),
                    _poly((-p * (p - 1), p - 2, 0, r), (Fraction(p * p, r), 2 * (p - 1), 0, 0)),
                ],
                [
                    _poly((Fraction(-q * r, p), 0, q - 1, r - 1)),
                    _poly(),
                    _poly((Fraction(p * q, r), p - 1, q - 1, 0)),
                ],
                [
                    _poly((Fraction(-r * r, p), 0, 0, 2 * (r - 1)), (r * (r - 1), p, 0, r - 2)),
                    _poly((Fraction(p * r * (r - 1), q), p - 1, 1, r - 2)),
                    _poly((p * r, p - 1, 0, r - 1)),
                ],
            ],
        )
    if check_id == "d3M":
        return MatrixA.from_rows(
            ring,
            [
                [
                    _poly(),
                    _poly((Fraction(-p * r, q), p - 1, 0, r - 1)),
                    _poly((Fraction(p * q, r), p - 1, q - 1, 0)),
                ],
                [
                    _poly((Fraction(-r * q * (q - 1), p), 1, q - 2, r - 1)),
                    _poly((-q * r, 0, q - 1, r - 1)),
                    _poly((-q * (q - 1), 0, q - 2, r), (Fraction(q * q, r), 0, 2 * (q - 1), 0)),
                ],
                [
                    _poly((Fraction(q * r * (r - 1), p), 1, q - 1, r - 2)),
                    _poly((Fraction(-r * r, q), 0, 0, 2 * (r - 1)), (r * (r - 1), 0, q, r - 2)),
                    _poly((q * r, 0, q - 1, r - 1)),
                ],
            ],
        )
    if check_id == "formone-scalar-1":
        return ring.element(_poly((p - q, p - 1, q - 1, 0)))
    if check_id == "formone-scalar-2":
        return ring.element(_poly((p - r, p - 1, 0, r - 1)))
    if check_id == "formone-scalar-3":
        return ring.element(_poly((q - r, 0, q - 1, r - 1)))
    if check_id == "bracket-scalar-12":
        return ring.element(_poly((p * (p - 1), p - 2, 0, 0)))
    if check_id == "bracket-scalar-13":
        return ring.element(_poly((-q * (q - 1), 0, q - 2, 0)))
    if check_id == "bracket-scalar-23":
        return ring.element(_poly((r * (r - 1), 0, 0, r - 2)))
    if check_id == "nested-12-scalar":
        factor = _poly((p - r, p - 2, q - 1, r - 1))
        inner = _poly((p - q, p, 0, 0), (q * (p - 1), 0, 0, 0))
        return ring.element(factor * inner)
    if check_id == "nested-21-scalar":
        factor = _poly((p - q, p - 2, q - 1, r - 1))
        inner = _poly((p - r, p, 0, 0), (r * (p - 1), 0, 0, 0))
        return ring.element(factor * inner)
    raise KeyError(f"unknown check id {check_id!r} for example 'ellipsoid'")


@cache
def _sphere_displays() -> MappingProxyType:
    """Every sphere display id with its value; the displays cover only
    (p, q, r) = (1, 1, 1), the ring of x^2 + y^2 + z^2 - 1. Built once per
    process: the values are immutable and depend on no argument."""
    ring = _fermat_ring(2, 2, 2)
    half = Fraction(1, 2)
    halfi = GaussianRational(0, half)
    d1m = MatrixA.from_rows(
        ring,
        [
            [_poly((half, 0, 1, 0)), _poly((-half, 1, 0, 0))],
            [_poly((-half, 1, 0, 0)), _poly((-half, 0, 1, 0))],
        ],
    )
    d2m = MatrixA.from_rows(
        ring,
        [
            [_poly((half, 0, 0, 1)), _poly((-halfi, 1, 0, 0))],
            [_poly((halfi, 1, 0, 0)), _poly((-half, 0, 0, 1))],
        ],
    )
    d3m_printed = MatrixA.from_rows(
        ring,
        [
            [_poly(), _poly((half, 0, 0, 1), (-halfi, 0, 1, 0))],
            [_poly((half, 0, 0, 1), (halfi, 0, 1, 0)), _poly()],
        ],
    )
    r12 = MatrixA.from_rows(
        ring,
        [
            [
                _poly((-halfi, 2, 0, 0)),
                _poly((half, 1, 0, 1), (-halfi, 1, 1, 0)),
            ],
            [
                _poly((-half, 1, 0, 1), (-halfi, 1, 1, 0)),
                _poly((halfi, 2, 0, 0)),
            ],
        ],
    )
    r13_printed = MatrixA.from_rows(
        ring,
        [
            [
                _poly((-halfi, 1, 1, 0)),
                _poly((half, 0, 1, 1), (-halfi, 0, 2, 0)),
            ],
            [
                _poly((-half, 0, 1, 1), (-halfi, 0, 2, 0)),
                _poly((halfi, 1, 1, 0)),
            ],
        ],
    )
    # (1,2) of the printed display reads 2z(z-iz); the matching corrected
    # entry below uses 2z(z-iy), forced by the surrounding computation
    r23_printed = MatrixA.from_rows(
        ring,
        [
            [
                _poly((-halfi, 1, 0, 1)),
                _poly((half, 0, 0, 2), (-halfi, 0, 0, 2)),
            ],
            [
                _poly((-half, 0, 0, 2), (-halfi, 0, 1, 1)),
                _poly((halfi, 1, 0, 1)),
            ],
        ],
    )
    r23_typo_fixed = MatrixA.from_rows(
        ring,
        [
            [
                _poly((-halfi, 1, 0, 1)),
                _poly((half, 0, 0, 2), (-halfi, 0, 1, 1)),
            ],
            [
                _poly((-half, 0, 0, 2), (-halfi, 0, 1, 1)),
                _poly((halfi, 1, 0, 1)),
            ],
        ],
    )
    minus_i = GaussianRational(0, -1)
    return MappingProxyType({
        "d1M": d1m,
        "d2M": d2m,
        "d3M-printed": d3m_printed,
        "d3M-corrected": -d3m_printed,
        "R12": r12,
        "R13-printed": r13_printed,
        "R13-corrected": -r13_printed,
        "R23-printed": r23_printed,
        "R23-corrected": -r23_typo_fixed,
        "trace-12-printed": ring.element(_poly((minus_i, 1, 0, 0))),
        "trace-13-printed": ring.element(_poly((minus_i, 0, 1, 0))),
        "trace-23-printed": ring.element(_poly((minus_i, 0, 0, 1))),
        "trace-12-image": ring.element(_poly((-halfi, 1, 0, 0))),
        "trace-13-image": ring.element(_poly((halfi, 0, 1, 0))),
        "trace-23-image": ring.element(_poly((halfi, 0, 0, 1))),
    })


def _sphere_expected(check_id: str, p: int, q: int, r: int):
    if check_id in ("P-printed", "P-corrected"):
        # the printed (2,1) entry reads y^p - i*z^r; the corrected one,
        # y^q - i*z^r, squares to the identity
        y = p if check_id == "P-printed" else q
        return MatrixA.from_rows(
            _fermat_ring(2 * p, 2 * q, 2 * r),
            [
                [_poly((1, p, 0, 0)), _poly((1, 0, q, 0), (_I, 0, 0, r))],
                [_poly((1, 0, y, 0), (-_I, 0, 0, r)), _poly((-1, p, 0, 0))],
            ],
        )
    displays = _sphere_displays()
    if check_id not in displays:
        raise KeyError(f"unknown check id {check_id!r} for example 'sphere'")
    if (p, q, r) != (1, 1, 1):
        raise ValueError(f"no display is given for parameters {(p, q, r)}; only (1, 1, 1)")
    return displays[check_id]


def reference_expected(example_id: str, check_id: str, p: int, q: int, r: int):
    """Transcribed expected value for a named check of an example family.

    Returns a matrix, vector, or ring element over the example's ring: the
    object its build made while that modulus is the last one built, or, for a
    sphere display, the ring its table was built over, which equals it. Rings
    compare by modulus, so results compare directly. Raises KeyError for an
    unknown id and ValueError when a display id is requested at parameters the
    displays do not cover.
    """
    if example_id == "ellipsoid":
        _check_parameters("ellipsoid", p, q, r)
        return _ellipsoid_expected(check_id, p, q, r)
    if example_id == "sphere":
        _check_parameters("sphere", p, q, r)
        return _sphere_expected(check_id, p, q, r)
    raise KeyError(f"unknown example id {example_id!r}")

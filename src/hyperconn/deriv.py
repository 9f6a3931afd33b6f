"""Derivations of a hypersurface quotient ring.

A derivation is determined by the images of the generators. It descends to
the quotient exactly when it sends the modulus to zero in the quotient
(tangency), so that condition is enforced at construction. Application uses
the chain rule on reduced representatives and reduces once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .polycore import GaussianRational, Polynomial
from .matring import MatrixA, _wrap
from .quotient import QuotientRing, RingElement


class TangencyError(ValueError):
    """The proposed generator images do not send the modulus to zero."""


class Derivation:
    """A derivation of the quotient ring, stored by generator images."""

    __slots__ = ("ring", "images", "_hash", "_modulus_image")

    def __init__(self, ring: QuotientRing, images, *, _checked: bool = False):
        images = tuple(ring.element(v) for v in images)
        if len(images) != ring.arity:
            raise ValueError(f"expected {ring.arity} generator images, got {len(images)}")
        self.ring = ring
        self.images = images
        self._hash = self._modulus_image = None
        if not _checked:
            defect = self.modulus_image()
            if not defect.is_zero:
                raise TangencyError(
                    f"images do not define a derivation of the quotient: delta(f) = {defect} != 0"
                )

    def modulus_image(self) -> RingElement:
        """delta(f), zero if valid; computed once and kept (a Derivation is immutable)."""
        if self._modulus_image is None:
            self._modulus_image = self._apply_rep(self.ring.modulus)
        return self._modulus_image

    def _apply_rep(self, rep: Polynomial) -> RingElement:
        return self.ring.dot(  # a partial paired with a zero image would only be skipped
            (rep.partial_derivative(index), image.rep)
            for index, image in enumerate(self.images) if image.rep
        )

    def apply(self, a: RingElement) -> RingElement:
        """Chain rule on the reduced representative, reduced once."""
        if a.ring != self.ring:
            raise ValueError("element belongs to a different ring")
        return self._apply_rep(a.rep)

    def apply_to_matrix(self, m: MatrixA) -> MatrixA:
        if m.ring != self.ring:
            raise ValueError("matrix belongs to a different ring")
        return MatrixA(
            self.ring, m.rows, m.cols, [self._apply_rep(e.rep) for e in m.entries]
        )

    def apply_to_vector(self, vector) -> tuple[RingElement, ...]:
        vec = [self.ring.element(v) for v in vector]
        return tuple(self._apply_rep(v.rep) for v in vec)

    @property
    def is_zero(self) -> bool:
        return all(image.is_zero for image in self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.ring == other.ring and self.images == other.images

    def __hash__(self):
        # computed on first use: hashing the images walks every term
        if self._hash is None:
            self._hash = hash((self.ring, self.images))
        return self._hash

    def __add__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        images = tuple(a + b for a, b in zip(self.images, other.images))
        return Derivation(self.ring, images, _checked=True)

    def __sub__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Derivation(self.ring, tuple(-a for a in self.images), _checked=True)

    def __mul__(self, scalar):
        # a*delta is tangent and sends f to a*delta(f): a known zero delta(f) carries over
        if isinstance(scalar, (int, Fraction, GaussianRational, RingElement)):
            a = self.ring.element(scalar)
            multiple = Derivation(self.ring, tuple(a * img for img in self.images), _checked=True)
            if self._modulus_image is not None and self._modulus_image.is_zero:
                multiple._modulus_image = self._modulus_image
            return multiple
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        pieces = []
        for name, image in zip(self.ring.names, self.images):
            if image.is_zero:
                continue
            pieces.append(f"{_wrap(str(image))}*d/d{name}")
        if not pieces:
            return "0"
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"Derivation({self!s})"


def koszul_derivations(ring: QuotientRing) -> tuple[Derivation, ...]:
    """The Koszul fields f_j*d/dx_i - f_i*d/dx_j, f_k = df/dx_k, for i < j.

    Each sends f to f_j*f_i - f_i*f_j = 0, so it is tangent; the
    constructor confirms that anyway. The pairs (i, j) come in
    lexicographic order: (0, 1), (0, 2), (1, 2) in three variables.
    """
    grad = [ring.modulus.partial_derivative(k) for k in range(ring.arity)]
    fields = []
    for i, j in combinations(range(ring.arity), 2):
        images = [Polynomial.zero(ring.names)] * ring.arity
        images[i], images[j] = grad[j], -grad[i]
        fields.append(Derivation(ring, images))
    return tuple(fields)


def bracket(delta: Derivation, eta: Derivation) -> Derivation:
    """The Lie bracket, with images delta(eta(x_i)) - eta(delta(x_i))."""
    images = tuple(
        delta.apply(eta.images[i]) - eta.apply(delta.images[i])
        for i in range(delta.ring.arity)
    )
    # the bracket of tangent derivations is tangent; verify anyway since it is cheap
    return Derivation(delta.ring, images)

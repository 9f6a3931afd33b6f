"""Hypersurface quotient rings A = Q(i)[x1..xn]/(f) with canonical remainders.

Every element is stored as the unique remainder of division by f under the
grevlex monomial order, so equality and zero-testing are exact and all the
identity checks reduce to comparing representatives.
"""

from __future__ import annotations

from fractions import Fraction

from .polycore import (
    GaussianRational,
    Polynomial,
    _power,
    _sum_of_products,
    divide_remainder,
    parse,
)


class QuotientRing:
    """The ring Q(i)[x1..xn]/(f) for a single nonzero, non-constant f."""

    __slots__ = ("names", "modulus", "_hash")

    def __init__(self, modulus: Polynomial):
        if modulus.is_zero or modulus.degree() == 0:
            raise ValueError("the modulus must be nonzero and non-constant")
        self.names = modulus.names
        self.modulus = modulus
        self._hash = hash((self.names, self.modulus))

    @property
    def arity(self) -> int:
        return len(self.names)

    def nf(self, p: Polynomial) -> "RingElement":
        """Canonical normal form of p as an element of the quotient."""
        _, remainder = divide_remainder(p, self.modulus)
        return RingElement(self, remainder)

    def dot(self, pairs) -> "RingElement":
        """Normal form of the sum of a*b over polynomial pairs, reduced once;
        multi-term pairs add up as Gaussian integers (_sum_of_products)."""
        return self.nf(Polynomial._raw(self.names, _sum_of_products(pairs)))

    def element(self, value) -> "RingElement":
        if isinstance(value, RingElement):
            if value.ring != self:
                raise ValueError("element belongs to a different ring")
            return value
        if isinstance(value, str):
            return self.nf(parse(value, self.names))
        if isinstance(value, Polynomial):
            return self.nf(value)
        if isinstance(value, (int, Fraction, GaussianRational)):
            return RingElement(self, Polynomial.constant(self.names, value))
        raise TypeError(f"cannot coerce {type(value).__name__} into the ring")

    def zero(self) -> "RingElement":
        return RingElement(self, Polynomial.zero(self.names))

    def one(self) -> "RingElement":
        return RingElement(self, Polynomial.constant(self.names, 1))

    def variable(self, index: int) -> "RingElement":
        return self.nf(Polynomial.variable(self.names, index))

    def require_point_on_surface(self, point) -> tuple[GaussianRational, ...]:
        values = tuple(
            v if isinstance(v, GaussianRational) else GaussianRational(v) for v in point
        )
        if len(values) != self.arity:
            raise ValueError(f"point length {len(values)} does not match arity {self.arity}")
        residual = self.modulus.evaluate(values)
        if residual:
            raise ValueError(f"point is not on the hypersurface: f(point) = {residual}")
        return values

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, QuotientRing):
            return self.names == other.names and self.modulus == other.modulus
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        return f"QuotientRing({self.modulus!s})"


class RingElement:
    """A residue class, stored as its canonical reduced representative. rep
    must be a normal form; QuotientRing.element and nf make one from any polynomial."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: QuotientRing, rep: Polynomial):
        self.ring = ring
        self.rep = rep

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def __bool__(self) -> bool:
        return bool(self.rep)

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise ValueError("elements belong to different rings")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RingElement(self.ring, Polynomial.constant(self.ring.names, other))
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash((self.ring, self.rep))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # sums of reduced representatives are reduced
        return RingElement(self.ring, self.rep + other.rep)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RingElement(self.ring, self.rep - other.rep)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return RingElement(self.ring, -self.rep)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RingElement(self.ring, self.rep * other)
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise ValueError("elements belong to different rings")
            a, b = self.rep, other.rep
            # a constant times a normal form is one; told apart without degree()'s scan
            if any(len(t) < 2 and not any(next(iter(t), ())) for t in (a.terms, b.terms)):
                return RingElement(self.ring, a * b)
            return self.ring.nf(a * b)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return _power(self.ring.one(), self, exponent)

    def evaluate(self, point) -> GaussianRational:
        """Value at an on-surface point; well defined on residue classes."""
        values = self.ring.require_point_on_surface(point)
        return self.rep.evaluate(values)

    def __str__(self) -> str:
        return str(self.rep)

    def __repr__(self) -> str:
        return f"RingElement({self.rep!s} mod {self.ring.modulus!s})"

"""Matrix algebra over a hypersurface quotient ring.

Each product entry, each commutator entry (the n products of a*b and the
n negated products of b*a, which can cancel before the reduction), and
trace_product's tr(a*b) (read off the diagonal pairs without forming a*b)
is one sum of products reduced once by QuotientRing.dot. Characteristic
polynomials use cofactor expansion over polynomials in t: each coefficient
of det(tI - g), and of each minor on the way, is one sum of pivot-minor
products reduced once. A determinant is the same expansion of the constant
grid; it is exact and ample for the small matrices that occur here.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .polycore import GaussianRational
from .quotient import QuotientRing, RingElement

_COFACTOR_LIMIT = 6


def _entrywise(op):
    """The matrix operator that applies op to matching entries of two same-shape matrices."""
    def method(self, other):
        if not isinstance(other, MatrixA):
            return NotImplemented
        self._require_same_shape(other)
        return MatrixA(self.ring, self.rows, self.cols, map(op, self.entries, other.entries))
    return method


class MatrixA:
    """A rows x cols matrix of ring elements. Treated as immutable."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: QuotientRing, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        for e in entries:
            if not isinstance(e, RingElement):
                raise TypeError("entries must be ring elements; use from_rows to coerce")
            if e.ring is not ring and e.ring != ring:
                raise ValueError("entry belongs to a different ring")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, ring: QuotientRing, rows) -> "MatrixA":
        data = [[ring.element(v) for v in row] for row in rows]
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("rows must all have the same length")
        return cls(ring, len(data), width, [e for row in data for e in row])

    @classmethod
    def identity(cls, ring: QuotientRing, n: int) -> "MatrixA":
        one, zero = ring.one(), ring.zero()
        return cls(ring, n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, ring: QuotientRing, rows: int, cols: int | None = None) -> "MatrixA":
        cols = rows if cols is None else cols
        z = ring.zero()
        return cls(ring, rows, cols, [z] * (rows * cols))

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[RingElement, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[RingElement, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def _require_same_shape(self, other: "MatrixA"):
        if self.ring != other.ring:
            raise ValueError("matrices belong to different rings")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixA):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    __add__ = _entrywise(operator.add)
    __sub__ = _entrywise(operator.sub)

    def __neg__(self):
        return MatrixA(self.ring, self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, MatrixA):
            if self.ring != other.ring:
                raise ValueError("matrices belong to different rings")
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            return MatrixA(self.ring, self.rows, other.cols, self._product_entries(other))
        if isinstance(other, (int, Fraction, GaussianRational, RingElement)):
            return self.scale(other)
        return NotImplemented

    # a matrix on the left is handled by its own __mul__, so only scalars get here
    __rmul__ = __mul__

    def _product_entries(self, other: "MatrixA"):
        """self*other's entries, row-major, each formed when asked for (shapes unchecked)."""
        columns = [other.column(j) for j in range(other.cols)]
        return (self.ring.dot((a.rep, b.rep) for a, b in zip(self.row(i), column))
                for i in range(self.rows) for column in columns)

    def scale(self, scalar) -> "MatrixA":
        scalar = self.ring.element(scalar)
        return MatrixA(self.ring, self.rows, self.cols, [scalar * e for e in self.entries])

    def mul_vector(self, vector) -> tuple[RingElement, ...]:
        vec = [self.ring.element(v) for v in vector]
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} does not match {self.cols} columns")
        return tuple(self.ring.dot((a.rep, v.rep) for a, v in zip(self.row(i), vec))
                     for i in range(self.rows))

    def trace(self) -> RingElement:
        if not self.is_square:
            raise ValueError("trace requires a square matrix")
        total = self.ring.zero()
        for i in range(self.rows):
            total = total + self.entries[i * self.cols + i]
        return total

    def _require_cofactor(self, what: str):
        if not self.is_square:
            raise ValueError(f"{what} requires a square matrix")
        if self.rows > _COFACTOR_LIMIT:
            raise ValueError(f"cofactor expansion is limited to n <= {_COFACTOR_LIMIT}")

    def determinant(self) -> RingElement:
        self._require_cofactor("determinant")
        grid = [[[e] for e in self.row(i)] for i in range(self.rows)]
        return _det_cofactor_tpoly(self.ring, grid)[0]

    def char_poly(self) -> "CharPoly":
        """Coefficients of det(tI - self), degree n first; always monic."""
        self._require_cofactor("characteristic polynomial")
        ring = self.ring
        one, zero = ring.one(), ring.zero()
        # entries of tI - g as coefficient lists in t, constant term first
        grid = [[[-e, one] if i == j else [-e] for j, e in enumerate(self.row(i))]
                for i in range(self.rows)]
        coeffs = _det_cofactor_tpoly(ring, grid)
        coeffs = coeffs + [zero] * (self.rows + 1 - len(coeffs))
        return CharPoly(ring, tuple(reversed(coeffs)))

    def rank_at_point(self, point) -> int:
        """Rank over Q(i) of the matrix evaluated at an on-surface point."""
        values = self.ring.require_point_on_surface(point)
        grid = [[e.rep.evaluate(values) for e in self.row(i)] for i in range(self.rows)]
        return _rank_gauss(grid)

    def to_json(self) -> list[list[str]]:
        return [[str(e) for e in self.row(i)] for i in range(self.rows)]

    def __str__(self) -> str:
        rows = ", ".join(
            "[" + ", ".join(str(e) for e in self.row(i)) + "]" for i in range(self.rows)
        )
        return f"[{rows}]"

    def __repr__(self) -> str:
        return f"MatrixA({self.rows}x{self.cols} over {self.ring!r})"


def _tpoly_dot(ring: QuotientRing, pairs):
    """The sum of a*b over pairs of polynomials in t, each a list of ring
    elements with the constant term first; each coefficient of the sum is
    one ring.dot over every pair."""
    pairs = [([c.rep for c in a], [c.rep for c in b]) for a, b in pairs]
    return [ring.dot((x, b[k - i]) for a, b in pairs for i, x in enumerate(a)
                     if 0 <= k - i < len(b))
            for k in range(max(len(a) + len(b) - 1 for a, b in pairs))]


def _det_cofactor_tpoly(ring: QuotientRing, grid):
    """det of a square grid of polynomials in t: the sum of +-pivot * minor
    over the first row, zero pivots skipped, as one _tpoly_dot."""
    n = len(grid)
    if n == 1:
        return grid[0][0]
    pairs = []
    for j, pivot in enumerate(grid[0]):
        if any(pivot):
            minor = [[row[k] for k in range(n) if k != j] for row in grid[1:]]
            pairs.append(([-c for c in pivot] if j % 2 else pivot,
                          _det_cofactor_tpoly(ring, minor)))
    return _tpoly_dot(ring, pairs) if pairs else [ring.zero()]


def _rank_gauss(grid) -> int:
    rows, cols = len(grid), len(grid[0])
    rank = 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, rows):
            if grid[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        grid[pivot_row], grid[pivot] = grid[pivot], grid[pivot_row]
        inv = GaussianRational.ONE / grid[pivot_row][col]
        grid[pivot_row] = [v * inv for v in grid[pivot_row]]
        for r in range(pivot_row + 1, rows):
            factor = grid[r][col]
            if factor:
                grid[r] = [a - factor * b for a, b in zip(grid[r], grid[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank


class CharPoly:
    """det(tI - g) as a monic coefficient sequence, degree n down to 0."""

    __slots__ = ("ring", "coefficients")

    def __init__(self, ring: QuotientRing, coefficients):
        coefficients = tuple(coefficients)
        if not coefficients:
            raise ValueError("a characteristic polynomial needs coefficients")
        for c in coefficients:
            if not isinstance(c, RingElement) or c.ring != ring:
                raise ValueError("coefficients must be elements of the given ring")
        if coefficients[0] != ring.one():
            raise ValueError("characteristic polynomials are monic")
        self.ring = ring
        self.coefficients = coefficients

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> RingElement:
        """Coefficient of t^k."""
        if not 0 <= k <= self.degree:
            raise ValueError(f"no coefficient of degree {k}")
        return self.coefficients[self.degree - k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharPoly):
            return NotImplemented
        return self.ring == other.ring and self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.ring, self.coefficients))

    def __mul__(self, other):
        if not isinstance(other, CharPoly):
            return NotImplemented
        if self.ring != other.ring:
            raise ValueError("characteristic polynomials over different rings")
        a = list(reversed(self.coefficients))
        b = list(reversed(other.coefficients))
        return CharPoly(self.ring, tuple(reversed(_tpoly_dot(self.ring, [(a, b)]))))

    def evaluate_matrix(self, g: MatrixA) -> MatrixA:
        """Substitute the square matrix g for t (Horner over matrices)."""
        if not g.is_square or g.ring != self.ring:
            raise ValueError("substitution needs a square matrix over the same ring")
        identity = MatrixA.identity(self.ring, g.rows)
        result = MatrixA.zero(self.ring, g.rows)
        for c in self.coefficients:
            result = result * g + identity.scale(c)
        return result

    def __str__(self) -> str:
        pieces = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c.is_zero:
                continue
            if k == 0:
                body = _wrap(str(c))
            else:
                t = "t" if k == 1 else f"t^{k}"
                body = t if c == self.ring.one() else f"{_wrap(str(c))}*{t}"
            pieces.append(body)
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"CharPoly({self!s})"


def _wrap(text: str) -> str:
    if "+" in text or "-" in text:
        return f"({text})"
    return text


def trace_product(a: MatrixA, b: MatrixA) -> RingElement:
    """tr(a*b), the sum of a[i][k]*b[k][i] reduced once, without forming a*b."""
    if a.ring != b.ring:
        raise ValueError("matrices belong to different rings")
    if (a.rows, a.cols) != (b.cols, b.rows):
        raise ValueError(f"a*b is not square: {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return a.ring.dot((x.rep, y.rep) for i in range(a.rows)
                      for x, y in zip(a.row(i), b.column(i)))


def commutator(a: MatrixA, b: MatrixA) -> MatrixA:
    """The matrix commutator a*b - b*a; entry (i, j) is the sum of
    a[i][k]*b[k][j] and -b[i][k]*a[k][j] over k, reduced once."""
    if not isinstance(a, MatrixA) or not isinstance(b, MatrixA):
        raise TypeError("commutator needs two matrices")
    if not a.is_square or not b.is_square:
        raise ValueError("commutator requires square matrices")
    a._require_same_shape(b)
    n = a.rows
    x = [e.rep for e in a.entries]
    y = [e.rep for e in b.entries]
    minus_y = [-e for e in y]
    out = [a.ring.dot([(x[i * n + k], y[k * n + j]) for k in range(n)]
                      + [(minus_y[i * n + k], x[k * n + j]) for k in range(n)])
           for i in range(n) for j in range(n)]
    return MatrixA(a.ring, n, n, out)

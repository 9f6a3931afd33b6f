"""Exact sparse multivariate polynomial arithmetic over the Gaussian rationals.

Coefficients are elements of Q(i) held as pairs of reduced Fractions.
Polynomials are sparse maps from monomials, which are plain exponent
tuples, to nonzero coefficients, so equality is equality of term maps. A
graded reverse lexicographic order fixes leading terms and makes division
remainders canonical. A small recursive-descent parser round-trips the
canonical text form.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb

_F0 = Fraction(0)
_F1 = Fraction(1)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class ParseError(ValueError):
    """Syntax error in polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GaussianRational:
    """An element re + im*i of Q(i). Instances are treated as immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_zero(self) -> bool:
        return not self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        # matches int/Fraction hashing when purely real, so mixed dicts stay sane
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            if not b and not d:
                return GaussianRational(a * c, _F0)
            return GaussianRational(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other) / self
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = GaussianRational(_F1)
        base = self
        for _ in range(exponent):
            result = result * base
        return result

    def __str__(self) -> str:
        negative, body = _term_text(self, "")
        return "-" + body if negative else body

    def __repr__(self) -> str:
        return f"GaussianRational({self.re}, {self.im})"


def _signed_imag_text(im: Fraction) -> str:
    mag = -im if im < 0 else im
    body = "i" if mag == 1 else f"{mag}*i"
    return ("-" if im < 0 else "+") + body


GaussianRational.ZERO = GaussianRational(0)
GaussianRational.ONE = GaussianRational(1)
GaussianRational.I = GaussianRational(0, 1)


class MonomialOrder:
    """Graded reverse lexicographic order on exponent tuples, variables in
    their given order."""

    __slots__ = ()

    def key(self, e: tuple):
        return (sum(e), tuple(-x for x in reversed(e)))


def _monomial_text(exps: tuple, names) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _check_names(names) -> tuple:
    names = tuple(names)
    if not names:
        raise ValueError("at least one variable name is required")
    seen = set()
    for name in names:
        if not name.isidentifier():
            raise ValueError(f"invalid variable name {name!r}")
        if name == "i":
            raise ValueError("variable name 'i' is reserved for the imaginary unit")
        if name in seen:
            raise ValueError(f"duplicate variable name {name!r}")
        seen.add(name)
    return names


def _coerce_coeff(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class Polynomial:
    """Sparse multivariate polynomial over Q(i). Treated as immutable."""

    __slots__ = ("names", "_terms")

    def __init__(self, names, terms=None):
        self.names = _check_names(names)
        clean: dict[tuple, GaussianRational] = {}
        arity = len(self.names)
        if terms:
            for m, c in terms.items():
                m = tuple(m)
                for e in m:
                    if not isinstance(e, int) or e < 0:
                        raise ValueError(f"exponents must be non-negative integers, got {m!r}")
                if len(m) != arity:
                    raise ValueError(f"monomial arity {len(m)} does not match {arity}")
                c = _coerce_coeff(c)
                if c:
                    clean[m] = c
        self._terms = clean

    @classmethod
    def _raw(cls, names, terms) -> "Polynomial":
        p = object.__new__(cls)
        p.names = names
        p._terms = terms
        return p

    @classmethod
    def zero(cls, names) -> "Polynomial":
        return cls(names)

    @classmethod
    def constant(cls, names, value) -> "Polynomial":
        names = _check_names(names)
        c = _coerce_coeff(value)
        if not c:
            return cls._raw(names, {})
        return cls._raw(names, {(0,) * len(names): c})

    @classmethod
    def variable(cls, names, index: int) -> "Polynomial":
        names = _check_names(names)
        if not 0 <= index < len(names):
            raise ValueError(f"variable index {index} out of range")
        exps = tuple(1 if k == index else 0 for k in range(len(names)))
        return cls._raw(names, {exps: GaussianRational.ONE})

    @property
    def terms(self) -> dict:
        # shared for speed; callers must not mutate
        return self._terms

    @property
    def arity(self) -> int:
        return len(self.names)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def leading_monomial(self) -> tuple:
        """The grevlex-largest exponent tuple."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self._terms, key=MonomialOrder().key)

    def constant_coefficient(self) -> GaussianRational:
        return self._terms.get((0,) * self.arity, GaussianRational.ZERO)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Polynomial.constant(self.names, other)
        return None

    def _require_same_names(self, other: "Polynomial"):
        if self.names != other.names:
            raise ValueError(f"variable mismatch: {self.names} vs {other.names}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(self.names, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.names == other.names and self._terms == other._terms

    def __hash__(self):
        return hash((self.names, frozenset((m, c.re, c.im) for m, c in self._terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._require_same_names(other)
        result = dict(self._terms)
        for m, c in other._terms.items():
            acc = result.get(m)
            if acc is None:
                result[m] = c
            else:
                s = acc + c
                if s:
                    result[m] = s
                else:
                    del result[m]
        return Polynomial._raw(self.names, result)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Polynomial._raw(self.names, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _coerce_coeff(other)
            if not c:
                return Polynomial._raw(self.names, {})
            return Polynomial._raw(self.names, {m: v * c for m, v in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_names(other)
        result: dict[tuple, GaussianRational] = {}
        get = result.get
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                acc = get(m)
                if acc is None:
                    result[m] = c
                else:
                    s = acc + c
                    if s:
                        result[m] = s
                    else:
                        del result[m]
        return Polynomial._raw(self.names, result)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.names, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def partial_derivative(self, index: int) -> "Polynomial":
        if not 0 <= index < self.arity:
            raise ValueError(f"variable index {index} out of range for arity {self.arity}")
        result: dict[tuple, GaussianRational] = {}
        for m, c in self._terms.items():
            e = m[index]
            if e:
                exps = list(m)
                exps[index] = e - 1
                result[tuple(exps)] = c * e
        return Polynomial._raw(self.names, result)

    def evaluate(self, point) -> GaussianRational:
        values = tuple(_coerce_coeff(v) for v in point)
        if len(values) != self.arity:
            raise ValueError(f"point length {len(values)} does not match arity {self.arity}")
        total = GaussianRational.ZERO
        for m, c in self._terms.items():
            term = c
            for v, e in zip(values, m):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for m in sorted(self._terms, key=MonomialOrder().key, reverse=True):
            negative, body = _term_text(self._terms[m], _monomial_text(m, self.names))
            if not pieces:
                pieces.append(("-" if negative else "") + body)
            else:
                pieces.append(("-" if negative else "+") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _term_text(c: GaussianRational, mtext: str) -> tuple[bool, str]:
    """Render one term; returns (sign is negative, unsigned body text)."""
    if not c.im:
        negative = c.re < 0
        mag = -c.re if negative else c.re
        if not mtext:
            return negative, str(mag)
        if mag == 1:
            return negative, mtext
        return negative, f"{mag}*{mtext}"
    if not c.re:
        negative = c.im < 0
        mag = -c.im if negative else c.im
        itext = "i" if mag == 1 else f"{mag}*i"
        return negative, itext if not mtext else f"{itext}*{mtext}"
    # mixed coefficients keep their own sign inside parentheses
    ctext = f"({c.re}{_signed_imag_text(c.im)})"
    return False, ctext if not mtext else f"{ctext}*{mtext}"


def divide_remainder(p: Polynomial, f: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide p by the single divisor f: p = quotient*f + remainder.

    No monomial of the remainder is divisible by the grevlex leading
    monomial of f, so the remainder is the canonical normal form of p
    modulo the ideal (f).

    The working terms are visited largest first through a heap (Johnson
    1974; Monagan and Pearce 2007), so each step costs O(log n) instead of a
    scan of every remaining term.
    """
    if f.is_zero:
        raise ValueError("division by the zero polynomial")
    p._require_same_names(f)
    lead = f.leading_monomial()
    lc = f._terms[lead]
    tail = [(m, c) for m, c in f._terms.items() if m != lead]

    # The heap holds _heap_key entries of the monomials that entered work;
    # an entry whose monomial has since left work is stale and skipped (if
    # the monomial came back, it was pushed again). Every tail product is
    # below the popped monomial, so a popped monomial never returns and pops
    # come in strictly decreasing order.
    work = dict(p._terms)
    heap = [_heap_key(e) for e in work]
    heapify(heap)
    quotient: dict[tuple, GaussianRational] = {}
    remainder: dict[tuple, GaussianRational] = {}
    while heap:
        exps = heappop(heap)[1][::-1]
        c = work.pop(exps, None)
        if c is None:
            continue
        if all(a >= b for a, b in zip(exps, lead)):
            t = tuple(a - b for a, b in zip(exps, lead))
            factor = c / lc
            quotient[t] = factor
            for fe, fc in tail:
                mm = tuple(a + b for a, b in zip(t, fe))
                delta = factor * fc
                acc = work.get(mm)
                if acc is None:
                    work[mm] = -delta
                    heappush(heap, _heap_key(mm))
                else:
                    s = acc - delta
                    if s:
                        work[mm] = s
                    else:
                        del work[mm]
        else:
            remainder[exps] = c
    return Polynomial._raw(p.names, quotient), Polynomial._raw(p.names, remainder)


def _heap_key(exps: tuple) -> tuple:
    """MonomialOrder.key negated component by component: (-degree, reversed
    exponents). On a min-heap the grevlex-largest monomial comes first."""
    return (-sum(exps), exps[::-1])


_OPS = frozenset("+-*/^()")
# str.isdigit also accepts non-ASCII digits such as superscripts, which int() rejects
_DIGITS = frozenset("0123456789")

# Parse limits; exceeding any raises ParseError. Each nesting level costs
# a few interpreter frames, so the depth limit stays well inside Python's
# default recursion limit of 1000. A power of a t-term base to the e has at
# most C(e+t-1, t-1) terms, and that bound is checked before the power runs:
# (x+y+z)^42 (946 terms) passes, (x+y+z)^44 (1035 terms) does not.
# MAX_PARSE_PAIRS caps the term products of one parse, counted before each
# runs: |L|*|R| per product (|L| per division by a constant) and at most
# t*C(e+t-1, t) per power, the pairs of multiplying by the base e times.
# A pair costs about 10 us with small integer coefficients and 30 us with
# dense Gaussian rationals (2-core x86-64 host), so a parse stays within a
# few seconds; (x+y+z)^42 spends 39,732 pairs, and
# (x+y+z)^40*(x+y+z)^40, 810,201, is refused.
MAX_NESTING = 100
MAX_EXPONENT = 1000
MAX_POWER_TERMS = 1000
MAX_PARSE_PAIRS = 100_000


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # longer than the interpreter's int string limit
                raise ParseError("integer literal is too long", i) from None
            tokens.append(("int", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    # grammar, tightest last:
    #   expr  := term (('+'|'-') term)*
    #   term  := unary (('*'|'/') unary)*     divisor must be a nonzero constant
    #   unary := '-' unary | power
    #   power := atom ('^' INT)?              exponent: integer literal 0..MAX_EXPONENT,
    #                                         result bound at most MAX_POWER_TERMS
    #   atom  := INT | 'i' | NAME | '(' expr ')'
    # Open parentheses and unary minus signs count towards one nesting
    # depth, at most MAX_NESTING at any point; products, divisions and
    # powers draw on one budget of MAX_PARSE_PAIRS term pairs.

    def __init__(self, tokens, names):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.pairs = 0
        self.names = names
        self.index = {name: k for k, name in enumerate(names)}

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nest(self, pos):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", pos)

    def spend(self, pairs, pos):
        self.pairs += pairs
        if self.pairs > MAX_PARSE_PAIRS:
            raise ParseError(f"expression needs more than {MAX_PARSE_PAIRS} term products", pos)

    def expr(self) -> Polynomial:
        left = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                right = self.term()
                left = left + right if value == "+" else left - right
            else:
                return left

    def term(self) -> Polynomial:
        left = self.unary()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                right = self.unary()
                self.spend(len(left.terms) * (len(right.terms) if value == "*" else 1), pos)
                if value == "*":
                    left = left * right
                else:
                    if right.is_zero:
                        raise ParseError("division by zero", pos)
                    if right.degree() > 0:
                        raise ParseError("division is only allowed by a nonzero constant", pos)
                    left = left * (GaussianRational.ONE / right.constant_coefficient())
            else:
                return left

    def unary(self) -> Polynomial:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            self.nest(pos)
            result = -self.unary()
            self.depth -= 1
            return result
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value, pos = self.take()
            if kind == "op" and value == "-":
                raise ParseError("negative exponent", pos)
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer literal", pos)
            if value > MAX_EXPONENT:
                raise ParseError(f"exponent {value} exceeds the limit of {MAX_EXPONENT}", pos)
            t = len(base.terms)
            if comb(value + max(t, 1) - 1, value) > MAX_POWER_TERMS:
                raise ParseError(f"power may have more than {MAX_POWER_TERMS} terms", pos)
            self.spend(t * comb(value + t - 1, t) if t else 0, pos)
            return base**value
        return base

    def atom(self) -> Polynomial:
        kind, value, pos = self.take()
        if kind == "int":
            return Polynomial.constant(self.names, value)
        if kind == "name":
            if value == "i":
                return Polynomial.constant(self.names, GaussianRational.I)
            idx = self.index.get(value)
            if idx is None:
                raise ParseError(f"unknown variable {value!r}", pos)
            return Polynomial.variable(self.names, idx)
        if kind == "op" and value == "(":
            self.nest(pos)
            inner = self.expr()
            kind, value, pos = self.take()
            if kind != "op" or value != ")":
                raise ParseError("expected ')'", pos)
            self.depth -= 1
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {value!r}", pos)


def parse(text: str, names=("x", "y", "z")) -> Polynomial:
    """Parse polynomial text over the named variables.

    Accepts integers (ASCII digits), `/` by nonzero constants, the literal
    `i`, `+ - * ^` and parentheses. Implicit multiplication is not allowed.
    Parsing the canonical printed form returns an equal polynomial.

    Raises ParseError on malformed text, on an exponent literal above
    MAX_EXPONENT (1000), on a power whose result may have more than
    MAX_POWER_TERMS (1000) terms, on more than MAX_PARSE_PAIRS (100,000)
    term products in all, and on parentheses and unary minus signs nested
    more than MAX_NESTING (100) deep; the CLI reports these with exit 2.
    """
    names = _check_names(names)
    parser = _Parser(_tokenize(text), names)
    result = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r}", pos)
    return result

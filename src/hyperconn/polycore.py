"""Exact sparse multivariate polynomial arithmetic over the Gaussian rationals.

Coefficients are elements (a + b*i)/d of Q(i) held as three integers in
lowest terms; Fractions appear only where values enter or leave as numbers
(the constructor and the re/im parts), and text is printed from the three
integers. One function, `_sum_of_products`, adds up products of
many-term polynomials: a polynomial product is the sum of one pair, and
`QuotientRing.dot` hands it many. Operands are lifted to integer numerators
over a common denominator, pairs add up as Gaussian integers, and each
output coefficient is normalised once. A power by the multinomial theorem
does the same over its compositions. A product with a one-term operand adds
nothing up: each coefficient is made from the two factors' integer fields
and normalised once, and the sum adopts the first such product's map.
Polynomials are sparse maps from monomials, which are plain exponent
tuples, to nonzero coefficients, so equality is equality of term maps. A
graded reverse lexicographic order fixes leading terms and makes division
remainders canonical. Division by f (`divide_remainder`) has one step
loop: the dividend and the tail of -f/lc are each lifted once to
Gaussian-integer numerators over one denominator, a step multiplies
integers and scales a denominator, and each output coefficient is
normalised once. A small recursive-descent parser round-trips the
canonical text form.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import add, ge, mul, neg, sub


def _fields(value) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class ParseError(ValueError):
    """Syntax error in polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GaussianRational:
    """An element (a + b*i)/d of Q(i) with integers a, b, d, where d > 0 and
    gcd(a, b, d) = 1, so equal values have equal fields. Instances are
    treated as immutable."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        a, da = _fields(re)
        b, db = _fields(im)
        d = lcm(da, db)
        # both parts are reduced fractions, so gcd(a, b, d) = 1 already
        return _exact(a * (d // da), b * (d // db), d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a) or bool(self._b)

    @property
    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._b and (self._a, self._d) == _fields(other)
        return NotImplemented

    def __hash__(self):
        # matches int/Fraction hashing when purely real, so mixed dicts stay sane
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _gaussian(a + c, b + e, d)
        # Only g = gcd(d, f) can share a factor with the numerators over
        # lcm(d, f), so a gcd with g normalises the sum, not one with the
        # lcm (Knuth, TAOCP vol. 2, 4.5.1).
        g = gcd(d, f)
        s, t = d // g, f // g
        a, b = a * t + c * s, b * t + e * s
        g = gcd(a, b, g)
        return _exact(a // g, b // g, s * (f // g))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other) - self
        return NotImplemented

    def __neg__(self):
        return _exact(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not b and not e:
            return _gaussian(a * c, 0, d * f)
        return _gaussian(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        # (a + b*i)/d divided by (c + e*i)/f is (a + b*i)(c - e*i)*f / (d*(c^2 + e^2))
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero in Q(i)")
            if c < 0:
                a, b, c = -a, -b, -c
            return _gaussian(a * f, b * f, d * c)
        norm = c * c + e * e
        return _gaussian((a * c + b * e) * f, (b * c - a * e) * f, d * norm)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other) / self
        return NotImplemented

    def __pow__(self, exponent: int):
        return _power(GaussianRational.ONE, self, exponent)

    def __str__(self) -> str:
        return _term_text(self, "").removeprefix("+")

    def __repr__(self) -> str:
        return f"GaussianRational({_ratio_text(self._a, self._d)}, {_ratio_text(self._b, self._d)})"


def _power(one, base, exponent: int):
    """one * base * ... * base, exponent factors of base multiplied in one
    at a time, so a power in a quotient ring is reduced after every product."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = one
    for _ in range(exponent):
        result = result * base
    return result


_new = object.__new__


def _exact(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational (a + b*i)/d; d > 0 and gcd(a, b, d) = 1 already."""
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _gaussian(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational (a + b*i)/d for d > 0, brought to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = _new(GaussianRational)  # _exact, inlined: this runs once per coefficient made
    z._a = a
    z._b = b
    z._d = d
    return z


GaussianRational.ZERO = GaussianRational(0)
GaussianRational.ONE = GaussianRational(1)
GaussianRational.I = GaussianRational(0, 1)


class MonomialOrder:
    """Graded reverse lexicographic order on exponent tuples, variables in
    their given order."""

    __slots__ = ()

    def key(self, e: tuple):
        return (sum(e), tuple(map(neg, reversed(e))))


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
        if self.names is not other.names and self.names != other.names:
            raise ValueError(f"variable mismatch: {self.names} vs {other.names}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction, GaussianRational)):
                return NotImplemented
            other = Polynomial.constant(self.names, other)
        return self.names == other.names and self._terms == other._terms

    def __hash__(self):
        return hash((self.names, frozenset(self._terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._require_same_names(other)
        return Polynomial._raw(self.names, _add_terms(dict(self._terms), other._terms))

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
        if isinstance(other, Polynomial):
            self._require_same_names(other)
            if len(self._terms) == 1 or len(other._terms) == 1:
                # no two pairs meet in one monomial, so there is nothing to add
                # up; each coefficient is multiplied from the integer fields
                terms = {}
                for m1, c1 in self._terms.items():
                    a, b, d = c1._a, c1._b, c1._d
                    for m2, c2 in other._terms.items():
                        c, e, f = c2._a, c2._b, c2._d
                        terms[tuple(map(add, m1, m2))] = (
                            _gaussian(a * c - b * e, a * e + b * c, d * f) if b or e
                            else _gaussian(a * c, 0, d * f))
                return Polynomial._raw(self.names, terms)
            return Polynomial._raw(self.names, _sum_of_products(((self, other),)))
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _coerce_coeff(other)
            if not c:
                return Polynomial._raw(self.names, {})
            return Polynomial._raw(self.names, {m: v * c for m, v in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        if not self._terms:
            return Polynomial.constant(self.names, 0**exponent)
        if len(self._terms) == 1:  # one composition, c^e at e*m: no table of powers
            ((m, c),) = self._terms.items()
            return Polynomial._raw(self.names, {tuple(exponent * x for x in m): c**exponent})
        # The multinomial theorem over integer numerators: with the base lifted
        # to (a_j + b_j*i)/d, a stack visits each composition k_1+...+k_t = e
        # once, depth first, as (term j, exponent left, C(e; k_1..k_(j-1)),
        # numerator, monomial) and adds e!/(k_1!...k_t!) * prod (a_j + b_j*i)^k_j.
        base, d = _lift(self._terms)
        m, a, b = base.pop()  # the last term takes the exponent that is left
        one = (0,) * self.arity
        powers = [(one, 1, 0)]  # powers[k]: (k*m, numerator of (a + b*i)^k)
        for _ in range(exponent):
            mk, re, im = powers[-1]
            powers.append((tuple(map(add, mk, m)), re * a - im * b, re * b + im * a))
        result, stack = {}, [(0, exponent, 1, 1, 0, one)]
        while stack:
            j, left, factor, re, im, m = stack.pop()
            if left and j < len(base):
                mj, a, b = base[j]
                for k in range(left + 1):
                    stack.append((j + 1, left - k, factor, re, im, m))
                    factor = factor * (left - k) // (k + 1)
                    re, im, m = re * a - im * b, re * b + im * a, tuple(map(add, m, mj))
                continue
            mk, a, b = powers[left]
            acc = result.get(m := tuple(map(add, m, mk)), (0, 0))
            result[m] = (acc[0] + factor * (re * a - im * b), acc[1] + factor * (re * b + im * a))
        d **= exponent
        return Polynomial._raw(self.names, {m: _gaussian(re, im, d)
                                            for m, (re, im) in result.items() if re or im})

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
        return "".join([_term_text(self._terms[m], _monomial_text(m, self.names))
                        for m in sorted(self._terms, key=_heap_key)]).removeprefix("+")

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _add_terms(result: dict, terms: dict) -> dict:
    """Add terms into result in place, dropping the sums that cancel."""
    for m, c in terms.items():
        acc = result.get(m)
        if acc is None:
            result[m] = c
        else:
            s = acc + c
            if s:
                result[m] = s
            else:
                del result[m]
    return result


def _sum_of_products(pairs) -> dict:
    """The terms of the sum of a*b over polynomial pairs, zero operands
    skipped. A pair with a one-term operand is one product a*b, whose map is
    fresh, so the first one becomes the running sum. The others are lifted,
    scaled to the lcm D of their dl*dr and summed as Gaussian integers
    (re, im) per monomial, and each of their coefficients is normalised once
    over D. A sum that cancels leaves the map, as with per-pair
    GaussianRational arithmetic, so the term order is the same too."""
    acc, lifted = {}, []
    for a, b in pairs:
        if not (a._terms and b._terms):
            continue
        if len(a._terms) == 1 or len(b._terms) == 1:
            acc = _add_terms(acc, (a * b)._terms) if acc else (a * b)._terms
        else:
            a._require_same_names(b)
            lifted.append((*_lift(a._terms), *_lift(b._terms)))
    if lifted:
        d = lcm(*[dl * dr for _, dl, _, dr in lifted])
        sums = {}
        get = sums.get
        for left, dl, right, dr in lifted:
            if (k := d // (dl * dr)) != 1:
                left = [(m, a * k, b * k) for m, a, b in left]
            for m1, a1, b1 in left:
                for m2, a2, b2 in right:
                    m = tuple(map(add, m1, m2))
                    if b1 or b2:
                        re = a1 * a2 - b1 * b2
                        im = a1 * b2 + b1 * a2
                    else:
                        re = a1 * a2
                        im = 0
                    old = get(m)
                    if old is None:
                        sums[m] = (re, im)
                    else:
                        re += old[0]
                        im += old[1]
                        if re or im:
                            sums[m] = (re, im)
                        else:
                            del sums[m]
        terms = {m: _gaussian(re, im, d) for m, (re, im) in sums.items()}
        return _add_terms(acc, terms) if acc else terms
    return acc


def _lowest_terms(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms as (numerator, denominator); d > 0."""
    g = gcd(n, d)
    return n // g, d // g


def _ratio_text(n: int, d: int) -> str:
    """n/d as str(Fraction(n, d)) prints it; d > 0."""
    n, d = _lowest_terms(n, d)
    return str(n) if d == 1 else f"{n}/{d}"


def _term_text(c: GaussianRational, mtext: str) -> str:
    """One term as text, led by its sign "+" or "-"; each part of the
    coefficient (a + b*i)/d prints as its reduced fraction."""
    a, b, d = c._a, c._b, c._d
    if b:
        sign, b = "-" if b < 0 else "+", abs(b)
        ctext = "i" if b == d else f"{_ratio_text(b, d)}*i"
        if a:
            # mixed coefficients keep their own sign inside parentheses
            ctext = f"({_ratio_text(a, d)}{sign}{ctext})"
            sign = "+"
    else:
        sign, a = "-" if a < 0 else "+", abs(a)
        if a == d and mtext:
            return sign + mtext
        ctext = _ratio_text(a, d)
    return sign + ctext if not mtext else f"{sign}{ctext}*{mtext}"


def _lift(terms: dict) -> tuple[list, int]:
    """([(monomial, a, b), ...], d): each coefficient as (a + b*i)/d over
    the least common denominator d of all of them."""
    d = lcm(*[c._d for c in terms.values()])
    return [(m, c._a * (k := d // c._d), c._b * k) for m, c in terms.items()], d


def divide_remainder(p: Polynomial, f: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Divide p by the single divisor f: p = quotient*f + remainder.

    No monomial of the remainder is divisible by the grevlex leading
    monomial of f, so the remainder is the canonical normal form of p
    modulo the ideal (f).

    The working terms are visited largest first through a heap (Johnson 1974;
    Monagan and Pearce 2007), so each step costs O(log n) instead of a scan of
    every remaining term. Its key is grevlex as one linear weight: no monomial
    met has degree above D = deg p (a term of p is divisible by the lead, so
    deg f <= D), so with M = _key_base(D) = 2^D.bit_length() and top = M^(n-1),
    key(e) = top*deg(e) - sum e[k]*M^(k-1) over k >= 1. RuntimeError is raised
    unless the key puts every tail monomial of f below the lead; then each pop
    pushes only lower keys and no step raises the degree, so the loop ends.

    A zero p, or a p with no term divisible by the lead, builds no heap: it is
    its own remainder, copied in grevlex order when it has two terms or more.
    Otherwise the tail of -f/lc is formed, one division per term, and lifted to
    Gaussian-integer numerators over the lcm dt of its denominators; p is lifted
    to numerators over the lcm d of its own. A work entry (a, b, e) is
    (a + b*i)/e: a step from an entry over e writes its products over e*dt,
    multiplied out once per e, so every denominator met is d*dt^j, and where two
    entries meet, the one over the smaller denominator is scaled up to the
    larger. Each quotient and remainder coefficient is normalised once, when it
    leaves the work; a quotient one is divided by lc only when lc is not a unit.
    With dt = 1, as for any monic f over Z[i], every entry stays over d. The
    lead is found per call, not per ring: the traced benchmark needs calls of
    `MonomialOrder.key` on dense-shifted, which builds its rings in set-up.
    """
    if f.is_zero:
        raise ValueError("division by the zero polynomial")
    p._require_same_names(f)
    terms = p._terms
    if not terms:
        return Polynomial._raw(p.names, {}), p
    lead = f.leading_monomial()
    if not any(all(map(ge, e, lead)) for e in terms):
        if len(terms) > 1:  # one term is in order already
            p = Polynomial._raw(p.names, {e: terms[e] for e in sorted(terms, key=_heap_key)})
        return Polynomial._raw(p.names, {}), p
    lc = f._terms[lead]
    size = _key_base(max(map(sum, terms)))
    top = size ** (len(lead) - 1)
    weights = [top] + [top - size ** k for k in range(len(lead) - 1)]
    klead = sum(map(mul, lead, weights))
    # A tail entry (key(fe) - key(lead), fe, ga, gb, dg) takes t*lead to
    # t*fe, with -fc/lc = (ga + gb*i)/dg; then every entry is put over the
    # lcm dt of the dg. The heap holds negated keys; monomial maps each key
    # met to its exponents. A heap entry whose monomial has left the work is
    # stale and skipped (it was pushed again if it came back).
    tail = [(sum(map(mul, fe, weights)) - klead, fe, -(g := fc / lc)._a, -g._b, g._d)
            for fe, fc in f._terms.items() if fe != lead]
    if tail and max(tail)[0] >= 0:  # else pops need not come in decreasing order
        raise RuntimeError("the heap key does not put the tail of the divisor below its lead")
    dt = lcm(*[t[4] for t in tail])
    if dt != 1:
        tail = [(dk, fe, ga * (s := dt // dg), gb * s, dt) for dk, fe, ga, gb, dg in tail]
    monomial = {-sum(map(mul, e, weights)): e for e in terms}
    heap = list(monomial)
    heapify(heap)
    # The work holds (a, b, e) for (a + b*i)/e; a popped entry is final.
    values = terms.values()
    d = lcm(*[c._d for c in values])
    if d == 1:
        work = dict(zip(monomial, [(c._a, c._b, 1) for c in values]))
    else:
        work = {k: (c._a * (s := d // c._d), c._b * s, d) for k, c in zip(monomial, values)}
    # e*dt for each denominator e met; many steps start from one d*dt^j,
    # and with a large dt one product per step would double a step's cost
    raised = {}
    u, v = lc._a, lc._b
    unit = lc._d == 1 and u * u + v * v == 1  # then 1/lc is u - v*i
    # A monomial below lead's largest exponent emax, in its variable vmax, is
    # no multiple of lead; most pops are turned away by that one comparison.
    emax = max(lead)
    vmax = lead.index(emax)
    quotient, remainder = {}, {}
    get = work.get
    while heap:
        k = heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        exps = monomial[k]
        a, b, e = c
        if exps[vmax] >= emax and all(map(ge, exps, lead)):
            t = tuple(map(sub, exps, lead))
            if not unit:
                quotient[t] = _gaussian(a, b, e) / lc
            elif v or u != 1:
                quotient[t] = _gaussian(a * u + b * v, b * u - a * v, e)
            else:
                quotient[t] = _gaussian(a, b, e)
            ne = raised.get(e)
            if ne is None:
                ne = raised[e] = e * dt
            for dk, fe, ga, gb, _ in tail:
                mk = k - dk
                if gb:
                    re, im = a * ga - b * gb, a * gb + b * ga
                else:
                    re, im = a * ga, b * ga
                acc = get(mk)
                if acc is None:
                    work[mk] = (re, im, ne)
                    heappush(heap, mk)
                    if mk not in monomial:
                        monomial[mk] = tuple(map(add, t, fe))
                else:
                    ra, ia, ea = acc
                    if ea != ne:  # d*dt^i and d*dt^j: scale the smaller side up
                        if ea < ne:
                            s = ne // ea
                            ra, ia, ea = ra * s, ia * s, ne
                        else:
                            s = ea // ne
                            re, im = re * s, im * s
                    re += ra
                    im += ia
                    if re or im:
                        work[mk] = (re, im, ea)
                    else:
                        del work[mk]
        else:
            remainder[exps] = _gaussian(a, b, e)
    return Polynomial._raw(p.names, quotient), Polynomial._raw(p.names, remainder)


def _key_base(degree: int) -> int:
    return 1 << degree.bit_length()  # M in divide_remainder's heap key


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
# runs: |L|*|R| per product (|L| per division by a constant). A power of a
# t-term base to the e expands by the multinomial theorem, one step for each
# of its C(e+t-1, t-1) compositions, and the term of a composition is a
# product of at most min(t, e) powers of base terms, so the power is charged
# min(t, e)*C(e+t-1, t-1) pairs; ((x+y+z)^40)^1 makes 861 one-factor steps.
# A pair costs about 1.1 us with small integer coefficients and 1.7 us with
# dense Gaussian rationals (2-core x86-64 host, Python 3.11); (x+y+z)^42
# spends 2,838 pairs, (x+2)^999 8,000, and (x+y+z)^40*(x+y+z)^40, 746,487,
# is refused. Multiplying b1- and b2-bit integers takes about
# b1*b2/700,000 us there, so a pair of coefficients whose largest integers
# have b1 and b2 bits counts 1 + (b1*b2 >> 20) times. The coefficients of a
# power reach e*B bits, with B the bit length of the largest numerator part
# or denominator of the base lifted to one denominator, plus that of t for
# the multinomial factors; each step multiplies two factors whose lengths add
# up to at most e*B, so a power's pairs count 1 + ((e*B)^2/4 >> 20) times. A
# linear form with two 4,000-digit coefficients may be raised to the 5th
# (about 66,000 pairs, 0.01 s) but not to the 20th, and
# (4294967295*x+4294967291)^999 (0.25 s) is refused. The dearest parse found
# under these charges, one power of a Gaussian linear form with 128-bit
# parts over a denominator, takes 0.9 s.
MAX_NESTING = 100
MAX_EXPONENT = 1000
MAX_POWER_TERMS = 1000
MAX_PARSE_PAIRS = 100_000


def _coefficient_bits(p: Polynomial) -> int:
    """Bit length of the largest integer a, b or d of p's coefficients."""
    return max((max(abs(c._a), abs(c._b), c._d).bit_length() for c in p._terms.values()),
               default=0)


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
    # powers draw on one budget of MAX_PARSE_PAIRS term pairs, weighted by
    # coefficient size.

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

    def spend(self, pairs, bits, pos):
        # bits: the product of the two operands' coefficient bit lengths
        self.pairs += pairs * (1 + (bits >> 20))
        if self.pairs > MAX_PARSE_PAIRS:
            raise ParseError(
                f"expression needs more than {MAX_PARSE_PAIRS} term products, "
                "weighted by coefficient size", pos
            )

    def expr(self) -> Polynomial:
        # one running sum, so each term read is added once and never copied again
        total = dict(self.term().terms)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                right = self.term()
                _add_terms(total, (right if value == "+" else -right).terms)
            else:
                return Polynomial._raw(self.names, total)

    def term(self) -> Polynomial:
        left = self.unary()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                right = self.unary()
                bits = _coefficient_bits(left) * _coefficient_bits(right)
                self.spend(len(left.terms) * (len(right.terms) if value == "*" else 1), bits, pos)
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
            compositions = comb(value + max(t, 1) - 1, value)  # C(e+t-1, t-1)
            if compositions > MAX_POWER_TERMS:
                raise ParseError(f"power may have more than {MAX_POWER_TERMS} terms", pos)
            lifted, d = _lift(base.terms)
            largest = max([d, *(abs(n) for _, a, b in lifted for n in (a, b))])
            bits = value * (largest.bit_length() + t.bit_length())
            self.spend(min(t, value) * compositions, bits * bits >> 2, pos)
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
    term products in all (a pair of coefficients whose largest integers have
    b1 and b2 bits counts 1 + b1*b2 // 2**20 times; a power of a t-term base
    to the e counts min(t, e) pairs for each of its C(e+t-1, t-1) compositions,
    weighted by the size its coefficients may reach), and on parentheses and
    unary minus signs nested more than MAX_NESTING (100) deep; the CLI
    reports these with exit 2.
    """
    names = _check_names(names)
    parser = _Parser(_tokenize(text), names)
    result = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r}", pos)
    return result

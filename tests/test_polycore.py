"""Coefficient field, monomials, polynomial arithmetic, division, parsing."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add
from random import Random
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperconn import (
    GaussianRational,
    MonomialOrder,
    ParseError,
    Polynomial,
    QuotientRing,
    divide_remainder,
    parse,
)
from hyperconn import polycore
from hyperconn.cli import main
from hyperconn.polycore import MAX_EXPONENT, MAX_NESTING, _heap_key
from helpers import (
    NAMES,
    nonzero_gaussian,
    pairwise_mul,
    random_gaussian,
    random_polynomial,
    record_calls,
)

# Deterministic and bounded, so the property tests run the same examples
# every time and add only a few seconds.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
gaussians = st.builds(GaussianRational, fractions, fractions)
nonzero_gaussians = gaussians.filter(bool)
exponent_vectors = st.tuples(*[st.integers(0, 4)] * len(NAMES))
polynomials = st.dictionaries(exponent_vectors, gaussians, max_size=10).map(
    lambda terms: Polynomial(NAMES, terms)
)
rational_divisors = st.dictionaries(
    exponent_vectors, nonzero_gaussians, min_size=1, max_size=4
).map(lambda terms: Polynomial(NAMES, terms))
# Leading coefficients of divisors whose -f/lc has Gaussian-integer
# coefficients: the four units and two that are not units.
INTEGRAL_LEADS = tuple(GaussianRational(*c) for c in ((1, 0), (-1, 0), (0, 1), (0, -1),
                                                      (2, 0), (1, 1)))
gaussian_integer_multipliers = st.builds(
    GaussianRational, st.integers(-3, 3), st.integers(-3, 3)
).filter(bool)


def integral_divisor(names, monomials, lc, multipliers):
    """lc at the grevlex-largest of monomials and lc*g at the others, so that
    every coefficient -g of -f/lc is a Gaussian integer."""
    lead = max(monomials, key=MonomialOrder().key)
    tail = [m for m in monomials if m != lead]
    return Polynomial(names, {lead: lc, **{m: lc * g for m, g in zip(tail, multipliers)}})


integral_divisors = st.builds(
    integral_divisor,
    st.just(NAMES),
    st.lists(exponent_vectors, min_size=1, max_size=4, unique=True),
    st.sampled_from(INTEGRAL_LEADS),
    st.lists(gaussian_integer_multipliers, min_size=3, max_size=3),
)
# Nearly every rational divisor has a -f/lc with denominators, which
# divide_remainder's entries then carry, and every integral one has none.
divisors = st.one_of(rational_divisors, integral_divisors)


def divides(m, n):
    """True when the monomial m divides n."""
    return all(a <= b for a, b in zip(m, n))


def rescan_divide_remainder(p, f):
    """Reference division: find each leading term by rescanning all of work.

    This is the quadratic kernel that divide_remainder replaced; it stays
    here only to check that the heap-driven kernel agrees with it exactly.
    """
    key = MonomialOrder().key
    lead = max(f.terms, key=key)
    lc = f.terms[lead]
    tail = [(m, c) for m, c in f.terms.items() if m != lead]

    work = dict(p.terms)
    quotient = {}
    remainder = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        if divides(lead, m):
            t = tuple(a - b for a, b in zip(m, lead))
            factor = c / lc
            acc = quotient.get(t)
            if acc is None:
                quotient[t] = factor
            else:
                s = acc + factor
                if s:
                    quotient[t] = s
                else:
                    del quotient[t]
            for fm, fc in tail:
                mm = tuple(a + b for a, b in zip(t, fm))
                delta = factor * fc
                acc = work.get(mm)
                s = -delta if acc is None else acc - delta
                if s:
                    work[mm] = s
                elif acc is not None:
                    del work[mm]
        else:
            remainder[m] = c
    return Polynomial(p.names, quotient), Polynomial(p.names, remainder)


def fraction_term_text(re: Fraction, im: Fraction, mtext: str) -> tuple[bool, str]:
    """Reference term printer on Fraction parts: (sign is negative, unsigned body).

    This is the printer GaussianRational used before it printed from its
    integer fields; it stays here only to check that printer against it.
    """
    if not im:
        negative = re < 0
        mag = -re if negative else re
        if not mtext:
            return negative, str(mag)
        if mag == 1:
            return negative, mtext
        return negative, f"{mag}*{mtext}"
    if not re:
        negative = im < 0
        mag = -im if negative else im
        itext = "i" if mag == 1 else f"{mag}*i"
        return negative, itext if not mtext else f"{itext}*{mtext}"
    mag = -im if im < 0 else im
    itext = ("-" if im < 0 else "+") + ("i" if mag == 1 else f"{mag}*i")
    ctext = f"({re}{itext})"
    return False, ctext if not mtext else f"{ctext}*{mtext}"


def fraction_str(p) -> str:
    """Reference polynomial printer: terms in descending MonomialOrder().key
    order, each through fraction_term_text."""
    pieces = []
    for m in sorted(p.terms, key=MonomialOrder().key, reverse=True):
        mtext = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(p.names, m) if e)
        negative, body = fraction_term_text(p.terms[m].re, p.terms[m].im, mtext)
        pieces.append(("-" if negative else "+" if pieces else "") + body)
    return "".join(pieces) or "0"


class FractionGaussian:
    """Reference Q(i) arithmetic on pairs of reduced Fractions.

    This is the representation GaussianRational had before it became three
    normalised integers; it stays here only to check the integer kernel
    against it.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, FractionGaussian):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        if isinstance(other, FractionGaussian):
            return FractionGaussian(self.re + other.re, self.im + other.im)
        return FractionGaussian(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, FractionGaussian):
            return FractionGaussian(self.re - other.re, self.im - other.im)
        return FractionGaussian(self.re - other, self.im)

    def __rsub__(self, other):
        return FractionGaussian(other - self.re, -self.im)

    def __neg__(self):
        return FractionGaussian(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, FractionGaussian):
            a, b, c, d = self.re, self.im, other.re, other.im
            return FractionGaussian(a * c - b * d, a * d + b * c)
        return FractionGaussian(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, FractionGaussian):
            other = FractionGaussian(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b, c, d = self.re, self.im, other.re, other.im
        return FractionGaussian((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        return FractionGaussian(other) / self

    def __str__(self):
        negative, body = fraction_term_text(self.re, self.im, "")
        return "-" + body if negative else body

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


def canonical(z):
    """True when z holds (a + b*i)/d in lowest terms with d > 0."""
    fields = (z._a, z._b, z._d)
    return all(type(k) is int for k in fields) and z._d > 0 and gcd(*fields) == 1


def same_value(z, ref):
    """z is a canonical GaussianRational equal to the reference value ref."""
    return (isinstance(z, GaussianRational) and canonical(z)
            and (z.re, z.im) == (ref.re, ref.im)
            and type(z.re) is Fraction and type(z.im) is Fraction)


def test_gaussian_basic_values():
    assert str(GaussianRational(0)) == "0"
    assert str(GaussianRational(3)) == "3"
    assert str(GaussianRational(Fraction(-1, 2))) == "-1/2"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(0, 3)) == "3*i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(3, 4))) == "(1/2+3/4*i)"
    assert str(GaussianRational(1, -1)) == "(1-i)"
    assert str(GaussianRational(0, Fraction(-1, 2))) == "-1/2*i"
    assert str(GaussianRational(Fraction(-1, 2), 1)) == "(-1/2+i)"


def test_gaussian_equality_and_coercion():
    assert GaussianRational(2) == 2
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(2, 0) != GaussianRational(2, 1)
    assert hash(GaussianRational(5)) == hash(5)


def test_gaussian_field_axioms_random():
    rng = Random(20260401)
    for _ in range(200):
        a = random_gaussian(rng)
        b = random_gaussian(rng)
        c = random_gaussian(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == GaussianRational(0)
        if not b.is_zero:
            assert (a / b) * b == a
        assert a * GaussianRational(a.re, -a.im) == GaussianRational(a.re * a.re + a.im * a.im)


def test_gaussian_inverse_and_powers():
    rng = Random(9041)
    for _ in range(100):
        a = nonzero_gaussian(rng)
        inv = GaussianRational(1) / a
        assert a * inv == GaussianRational(1)
        assert a ** 3 == a * a * a
        assert a ** 0 == GaussianRational(1)
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)


# ints and Fractions with mixed denominators, some far beyond machine words
rationals = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.integers(-(10**30), 10**30),
)
gaussian_parts = st.tuples(rationals, rationals)
# exponents 0..2 make the products of two polynomials collide and cancel
mixed_polynomials = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * len(NAMES)),
    gaussian_parts.map(lambda parts: GaussianRational(*parts)),
    max_size=8,
).map(lambda terms: Polynomial(NAMES, terms))


@PROPERTY
@given(gaussian_parts, gaussian_parts)
@example((0, 0), (Fraction(-1, 2), 3))
@example((Fraction(1, 6), Fraction(1, 4)), (Fraction(5, 6), Fraction(-1, 4)))  # sum is 1
@example((Fraction(3, 2), 0), (0, 0))  # division by zero
def test_gaussian_kernel_matches_fraction_reference(x, y):
    z, w = GaussianRational(*x), GaussianRational(*y)
    rz, rw = FractionGaussian(*x), FractionGaussian(*y)
    assert same_value(z, rz)
    assert same_value(z + w, rz + rw)
    assert same_value(z - w, rz - rw)
    assert same_value(z * w, rz * rw)
    if rw:
        assert same_value(z / w, rz / rw)
    else:
        with pytest.raises(ZeroDivisionError):
            z / w
    assert same_value(-z, -rz)
    assert (z == w) == (rz == rw)
    assert bool(z) == bool(rz)
    assert hash(z) == hash(rz)
    assert str(z) == str(rz)
    assert repr(z) == repr(rz)


@PROPERTY
@given(gaussian_parts, rationals)
@example((Fraction(1, 2), 0), Fraction(1, 2))
@example((4, 0), 4)
def test_gaussian_kernel_mixed_operands_match_reference(x, n):
    z, rz = GaussianRational(*x), FractionGaussian(*x)
    assert same_value(z + n, rz + n)
    assert same_value(n + z, n + rz)
    assert same_value(z - n, rz - n)
    assert same_value(n - z, n - rz)
    assert same_value(z * n, rz * n)
    assert same_value(n * z, n * rz)
    if n:
        assert same_value(z / n, rz / n)
    if rz:
        assert same_value(n / z, n / rz)
    assert (z == n) == (rz == n) == (n == z)
    if z == n:
        assert hash(z) == hash(n)


# parts that hit every printer branch: zero, magnitude 1, integers, small
# fractions with non-unit denominators, and 4,000-digit numerators and
# denominators (below the interpreter's 4,300-digit limit for printing an int)
LONG = 10**4000
printable_parts = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.integers(2, 12)),
    st.builds(Fraction, st.integers(-LONG, LONG), st.integers(1, LONG)),
)


@PROPERTY
@given(printable_parts, printable_parts)
@example(0, 0)
@example(-1, 0)
@example(0, Fraction(3, 2))
@example(Fraction(-1, 3), -1)
@example(1, Fraction(-3, 2))
@example(Fraction(LONG - 1, 7), Fraction(-1, LONG - 1))
@example(Fraction(2 * LONG, LONG + 1), LONG)  # shares no factor with 2*LONG
def test_printer_matches_fraction_reference(re, im):
    z = GaussianRational(re, im)
    negative, body = fraction_term_text(Fraction(re), Fraction(im), "")
    assert str(z) == ("-" if negative else "") + body
    assert repr(z) == f"GaussianRational({Fraction(re)}, {Fraction(im)})"
    # the same coefficient in front of a monomial, and beside another term
    for terms in ({(2, 0, 1): z}, {(0, 1, 0): z, (1, 0, 0): GaussianRational(-1)}):
        p = Polynomial(NAMES, terms)
        assert str(p) == fraction_str(p)


@PROPERTY
@given(mixed_polynomials)
@example(parse("z^3+x*y*z+y^3+x^3+x^2*z+1-i*x+y/7"))
def test_polynomial_printer_matches_fraction_reference(p):
    # same text, so the same terms in descending MonomialOrder().key order
    assert str(p) == fraction_str(p)


def test_gaussian_accepts_only_int_and_fraction():
    for bad in (1.5, "1", None, complex(1, 1)):
        with pytest.raises(TypeError):
            GaussianRational(bad)
        with pytest.raises(TypeError):
            GaussianRational(1, bad)
    assert same_value(GaussianRational(True, Fraction(2, 4)), FractionGaussian(1, Fraction(1, 2)))


@PROPERTY
@given(mixed_polynomials, mixed_polynomials)
@example(parse("x+y"), parse("x-y"))
@example(parse("x+y+1"), parse("y-x+x*y"))  # x*y cancels, then comes back last
@example(parse("x/2+i*y/3"), parse("x/2-i*y/3"))
@example(parse("x/6+y/4"), parse("6*x-4*y"))
# one-term factors: only one side has an imaginary part, then both do
@example(parse("2"), parse("x+i*y"))
@example(parse("x+i*y"), parse("2"))
@example(parse("(1-i)/3*z"), parse("(2+i)/5*x-i*y"))
def test_integer_product_matches_pairwise_reference(p, q):
    before = [list(p.terms.items()), list(q.terms.items())]
    product = p * q
    # same terms in the same order, so printed and hashed forms agree too
    assert list(product.terms.items()) == list(pairwise_mul(p, q).terms.items())
    assert all(canonical(c) for c in product.terms.values())
    # the map is the product's own, which _sum_of_products may adopt as a sum
    assert product.terms is not p.terms and product.terms is not q.terms
    assert [list(p.terms.items()), list(q.terms.items())] == before


def repeated_product(p, e):
    """Reference power: p * ... * p, e factors, each by the pairwise product."""
    result = Polynomial.constant(p.names, 1)
    for _ in range(e):
        result = pairwise_mul(result, p)
    return result


@PROPERTY
@given(mixed_polynomials, st.integers(0, 6))
@example(parse("1+x+x^2"), 6)  # monomials collide: x^2 is both 1*x^2 and x*x
@example(parse("1+2*x-2*x^2"), 2)  # and cancel: 2*1*(-2)*x^2 + (2*x)^2 = 0
@example(parse("x/2+i*y/3-1/2*i+(1/3-2/5*i)*z"), 5)
@example(parse("(1+i)*x+(1-i)*y"), 4)
@example(parse("3/2*x^2*y"), 5)
@example(Polynomial(NAMES), 0)  # 0^0 == 1
@example(Polynomial(NAMES), 4)
@example(parse("x+y"), 0)
def test_power_matches_repeated_product(p, e):
    power = p**e
    assert power == repeated_product(p, e)
    assert all(c and canonical(c) for c in power.terms.values())


def test_polynomial_rejects_invalid_monomials():
    # a negative exponent, the wrong number of exponents, a non-integer exponent
    for exps in [(1, -1, 0), (1, 0), (1.5, 0, 0)]:
        with pytest.raises(ValueError):
            Polynomial(NAMES, {exps: 1})


def test_grevlex_is_graded_and_breaks_ties():
    key = MonomialOrder().key
    # degree dominates
    assert key((0, 0, 3)) > key((1, 1, 0))
    # equal degree: smaller exponent in the last variable wins
    assert key((2, 0, 0)) > key((0, 2, 0))
    assert key((0, 2, 0)) > key((0, 0, 2))
    assert key((1, 1, 0)) > key((1, 0, 1))


def test_polynomial_construction_drops_zeros():
    p = Polynomial(NAMES, {(1, 0, 0): 0, (0, 1, 0): 2})
    assert len(p.terms) == 1
    assert p.degree() == 1
    assert Polynomial(NAMES).is_zero
    assert Polynomial(NAMES).degree() == -1


def test_multiplying_by_a_zero_scalar():
    p = parse("x^2-i*y/3+1")
    for zero in (0, Fraction(0), GaussianRational(0)):
        for product in (p * zero, zero * p):
            assert product == p - p
            assert product.is_zero and product.names == NAMES and str(product) == "0"


def test_polynomial_ring_axioms_random():
    rng = Random(77103)
    for _ in range(60):
        a = random_polynomial(rng)
        b = random_polynomial(rng)
        c = random_polynomial(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + Polynomial(NAMES) == a
        assert (a - a).is_zero


def test_polynomial_partial_derivative_leibniz():
    rng = Random(5150)
    for _ in range(40):
        a = random_polynomial(rng, max_degree=2, max_terms=3)
        b = random_polynomial(rng, max_degree=2, max_terms=3)
        for k in range(3):
            left = (a * b).partial_derivative(k)
            right = a.partial_derivative(k) * b + a * b.partial_derivative(k)
            assert left == right


def test_polynomial_evaluate_is_a_homomorphism():
    rng = Random(31007)
    for _ in range(40):
        a = random_polynomial(rng)
        b = random_polynomial(rng)
        point = tuple(random_gaussian(rng, 3) for _ in range(3))
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


def test_polynomial_str_canonical():
    p = parse("y^2 - x + 1/2")
    assert str(p) == "y^2-x+1/2"
    assert str(parse("0")) == "0"
    assert str(parse("-x*y")) == "-x*y"
    assert str(parse("i*z - 2")) == "i*z-2"
    assert str(parse("(1+i)*x")) == "(1+i)*x"


def test_divide_remainder_leading_term_cancellation():
    p = parse("x^2")
    f = parse("x^2+y^2+z^2-1")
    q, rem = divide_remainder(p, f)
    assert str(q) == "1"
    assert rem == parse("-y^2-z^2+1")


# a Gaussian leading coefficient with a denominator: every step divides by it
NON_MONIC_F = parse("(2+3*i)/5*x^2-y*z/3+(1-i)/7")
NON_MONIC_P = parse("x^5+(1/2-i)*x^3*y+x^2*z^2-4*y")


@PROPERTY
@given(polynomials, divisors)
@example(NON_MONIC_P, NON_MONIC_F)
def test_division_identity_and_reduced_remainder(p, f):
    q, rem = divide_remainder(p, f)
    assert q * f + rem == p
    lead = f.leading_monomial()
    assert not any(divides(lead, m) for m in rem.terms)


@PROPERTY
@given(polynomials, divisors.filter(lambda f: f.degree() > 0))
@example(parse("x^4*y^3-i/2*x*z^4+3*y^2*z"), parse("x^2+y^2+z^2-1"))
def test_nf_is_idempotent(p, f):
    # and a multiple of f reduces to 0, so p and p + f share a normal form
    ring = QuotientRing(f)
    once = ring.nf(p)
    assert ring.nf(once.rep) == once
    assert ring.nf(once.rep).rep.terms == once.rep.terms
    assert ring.nf(p * f).is_zero
    assert ring.nf(p + f) == once


@PROPERTY
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=2, max_size=30, unique=True)
))
def test_heap_key_order_is_grevlex(vectors):
    by_key = sorted(vectors, key=MonomialOrder().key, reverse=True)
    assert sorted(vectors, key=_heap_key) == by_key


# Key bases of the integer heap key are powers of two: a largest degree of
# 2^k - 1 and one of 2^k give different bases, so both sides are drawn.
STRADDLING_DEGREES = sorted({2**k + d for k in range(1, 9) for d in (-1, 0)} | {300})


@st.composite
def straddling_divisions(draw, integral):
    """(p, f) in 1 to 4 variables with deg p a key-base boundary: f's terms
    are 2 to 4 degrees lower, and p mixes multiples of f's lead with other
    terms, so a reduction takes at most a few dozen steps. With integral,
    -f/lc has Gaussian-integer coefficients."""
    arity = draw(st.integers(1, 4))
    top = draw(st.sampled_from(STRADDLING_DEGREES))

    def monomial(degree):
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=arity - 1,
                                    max_size=arity - 1)))
        return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))

    names = ("w", "x", "y", "z")[:arity]
    if integral:
        monomials = list({monomial(max(0, top - draw(st.integers(2, 4)))): None
                          for _ in range(draw(st.integers(1, 3)))})
        f = integral_divisor(names, monomials, draw(st.sampled_from(INTEGRAL_LEADS)),
                             draw(st.lists(gaussian_integer_multipliers, min_size=2, max_size=2)))
    else:
        f = Polynomial(names, {monomial(max(0, top - draw(st.integers(2, 4)))):
                               draw(nonzero_gaussians) for _ in range(draw(st.integers(1, 3)))})
    lead = f.leading_monomial()
    multiples = [top] + draw(st.lists(st.integers(sum(lead), top), max_size=2))
    p_terms = {tuple(map(add, lead, monomial(d - sum(lead)))): draw(nonzero_gaussians)
               for d in multiples}
    for _ in range(draw(st.integers(0, 3))):
        p_terms[monomial(max(0, top - draw(st.integers(0, 3))))] = draw(nonzero_gaussians)
    return Polynomial(names, p_terms), f


# Half the draws are general divisions, half straddle a key-base boundary.
@settings(PROPERTY, max_examples=2 * PROPERTY.max_examples)
@given(st.one_of(st.tuples(polynomials, divisors),
                 st.one_of(straddling_divisions(integral=False),
                           straddling_divisions(integral=True))))
# y*z is cancelled after x*y is reduced, then x*z creates it again: the
# heap holds a stale entry for it next to the live one
@example((parse("x^2-y*z"), parse("x-y-z")))
@example((parse("(x+y+z)^6"), parse("x^2+y^2+z^2-1")))
@example((NON_MONIC_P, NON_MONIC_F))
@example((parse("x^128*y^127+y^255"), parse("x*y-z^2")))  # D = 255: base 256
@example((parse("x^128*y^128+z^256"), parse("x*y-z^2")))  # D = 256: base 512
@example((Polynomial(("x",), {(256,): 1, (255,): 2}), Polynomial(("x",), {(254,): 3, (0,): 1})))
# -f/lc over 6: an entry over a smaller denominator meets a product over a larger one
@example((parse("(x+y+z)^6"), parse("6*x^2+2*y^2+3*z^2-1")))
# and, found by random search, also an entry over a larger denominator meets
# a product over a smaller one
@example((parse("-x^5*y^4*z^5-x^4*y^3*z-x^3*y^4"),
          parse("2*x^3*y^2*z+1/2*x^2*y^2*z^2+3*x^3*y^2+y*z^2")))
def test_heap_division_matches_rescan_reference(case):
    p, f = case
    q, rem = divide_remainder(p, f)
    ref_q, ref_rem = rescan_divide_remainder(p, f)
    # same terms in the same order, so printed and hashed forms agree too
    assert list(q.terms.items()) == list(ref_q.terms.items())
    assert list(rem.terms.items()) == list(ref_rem.terms.items())


def test_a_heap_key_that_misorders_the_tail_raises_at_once(monkeypatch, capsys):
    # with the key base halved, key(x^3) = key(z^4) = 48 for degree 4, so a
    # pop could push its own key again; the guard raises before the loop, and
    # verify reports one internal error instead of hanging
    monkeypatch.setattr(polycore, "_key_base", lambda degree: 1 << (degree.bit_length() - 1))
    with pytest.raises(RuntimeError, match="heap key"):
        divide_remainder(parse("z^4"), parse("x^3+y^3+z^4-1"))
    # a one-term divisor has an empty tail, which passes
    q, rem = divide_remainder(parse("x*y+z"), parse("x"))
    assert (str(q), str(rem)) == ("y", "z")
    assert main(["verify", "ellipsoid", "--p", "3", "--q", "3", "--r", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: RuntimeError: the heap key")
    assert captured.err.count("\n") == 1


def test_zero_dividend_returns_before_finding_the_lead(monkeypatch):
    calls = record_calls(monkeypatch, MonomialOrder, "key")
    names = ("u", "v")
    q, rem = divide_remainder(Polynomial(names), Polynomial(names, {(2, 0): 1, (0, 1): -1}))
    assert q.is_zero and rem.is_zero and q.names == rem.names == names
    assert not calls
    # the errors come first
    with pytest.raises(ValueError, match="zero polynomial"):
        divide_remainder(Polynomial(names), Polynomial(names))
    with pytest.raises(ValueError, match="variable mismatch"):
        divide_remainder(Polynomial(names), parse("x"))


def test_nothing_divisible_returns_p_in_grevlex_order():
    names = ("u", "v", "w")
    # inserted lowest first: 1, u, w^2, u*v, v^3
    p = Polynomial(names, {(0, 0, 0): 1, (1, 0, 0): 2, (0, 0, 2): 3, (1, 1, 0): 4, (0, 3, 0): 5})
    f = Polynomial(names, {(2, 0, 0): 1, (0, 1, 1): -1, (0, 0, 0): 7})
    q, rem = divide_remainder(p, f)
    assert q.is_zero and q.names == names
    assert rem == p and rem.names == names
    assert list(rem.terms) == [(0, 3, 0), (1, 1, 0), (0, 0, 2), (1, 0, 0), (0, 0, 0)]
    assert list(rem.terms.items()) == list(rescan_divide_remainder(p, f)[1].terms.items())
    assert str(rem) == "5*v^3+4*u*v+3*w^2+2*u+1"


def test_divide_by_zero_raises():
    with pytest.raises(ValueError):
        divide_remainder(parse("x"), Polynomial(NAMES))


@PROPERTY
@given(polynomials)
@example(Polynomial(NAMES, {(1, 0, 0): GaussianRational(0, Fraction(-1, 2)),
                            (0, 2, 1): GaussianRational(Fraction(-1, 2), 1)}))
def test_parse_round_trip(p):
    assert parse(str(p)) == p


def test_parse_grammar():
    assert parse("x^2*y - 3*z + i") == parse("i + x^2*y - 3*z")
    assert parse("-x^2") == -parse("x^2")
    assert parse("2^3") == Polynomial(NAMES, {(0, 0, 0): 8})
    assert parse("x/2") == Polynomial(NAMES, {(1, 0, 0): Fraction(1, 2)})
    assert parse("(x+y)*(x-y)") == parse("x^2-y^2")
    assert parse("x", names=("x",)) == Polynomial(("x",), {(1,): 1})


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x +")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse("x^-2")
    with pytest.raises(ParseError):
        parse("q + 1")
    with pytest.raises(ParseError):
        parse("x/<y")
    with pytest.raises(ParseError):
        parse("x y")  # implicit multiplication is rejected
    with pytest.raises(ParseError):
        parse("x/y")  # division only by nonzero constants
    with pytest.raises(ParseError):
        parse("x/0")


def test_multi_character_names_and_constant_comparisons():
    # names longer than one character are read whole, never split
    assert parse("x1*x2", names=("x1", "x2")) == Polynomial(("x1", "x2"), {(1, 1): 1})
    with pytest.raises(ParseError, match="unknown variable 'xy'") as err:
        parse("xy")
    assert err.value.position == 0
    # a polynomial equals a number exactly when it is that constant
    assert parse("6/2") == 3 and parse("3*x^0") == 3
    assert parse("x") != 3 and parse("3+i") != 3 and Polynomial(NAMES) == 0
    # a ring element is true exactly when its normal form is nonzero
    ring = QuotientRing(parse("x^2+y^2+z^2-1"))
    assert not ring.nf(parse("x^2+y^2+z^2-1")) and not ring.zero()
    assert ring.nf(parse("x^2")) and ring.one()


def test_parse_rejects_reserved_names():
    with pytest.raises(ValueError):
        parse("a+b", names=("a", "i"))
    with pytest.raises(ValueError):
        Polynomial(("x", "x"), {})


def test_parse_accepts_only_ascii_digits():
    with pytest.raises(ParseError) as err:
        parse("x^\u00b2")  # superscript two passes str.isdigit
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse("\u0663*x")  # Arabic-Indic digit three
    with pytest.raises(ParseError):
        parse("1" * 5000)  # beyond the interpreter's int string limit


def test_parse_exponent_cap():
    assert parse(f"x^{MAX_EXPONENT}") == Polynomial(NAMES, {(MAX_EXPONENT, 0, 0): 1})
    with pytest.raises(ParseError) as err:
        parse(f"x^{MAX_EXPONENT + 1}")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse("x^999999999")


def test_parse_power_term_bound():
    # (x+y+z)^e has C(e+2, 2) terms: 990 at e = 43, 1035 at e = 44
    assert len(parse("(x+y+z)^43").terms) == 990
    with pytest.raises(ParseError) as err:
        parse("(x+y+z)^44")
    assert err.value.position == 8
    # the bound counts the terms of the base, however it is written
    with pytest.raises(ParseError):
        parse("((x+y+z)^2)^20")
    assert parse("0^1000").is_zero
    assert parse("(2*x)^1000") == Polynomial(NAMES, {(1000, 0, 0): 2**1000})
    # a legal 861-term base to the first power: a composition per term
    nested = parse("((x+y+z)^40)^1")
    assert len(nested.terms) == 861 and nested == parse("(x+y+z)^40")


def test_parse_pair_budget():
    # (x+y+z)^40 spends 3*C(42, 2) = 2,583 pairs and has 861 terms, so a
    # product of two would add 861^2 = 741,321 more
    with pytest.raises(ParseError, match="term products") as err:
        parse("(x+y+z)^40*(x+y+z)^40")
    assert err.value.position == 10
    # (x+2)^e spends 2 pairs for each of its e+1 compositions, weighted by the
    # e*4-bit coefficients it may reach: 8,000 pairs at e = 999, the largest
    # exponent the term bound lets a two-term base reach
    power = parse("(x+2)^999")
    assert len(power.terms) == 1000
    assert power.terms[(1, 0, 0)] == 999 * 2**998
    assert parse("(x+2)^316").terms[(316, 0, 0)] == 1
    with pytest.raises(ParseError, match="more than 1000 terms"):
        parse("(x+2)^1000")
    # powers share the budget: twelve (x+2)^999 fit, the thirteenth is
    # refused at its exponent
    assert parse("+".join(["(x+2)^999"] * 12)) == power * 12
    with pytest.raises(ParseError, match="term products") as err:
        parse("+".join(["(x+2)^999"] * 13))
    assert err.value.position == 126
    # and so do divisions by a constant, |L| pairs each
    with pytest.raises(ParseError, match="term products"):
        parse("(x+y+z)^20" + "/2" * 500)


def test_parse_pair_budget_weighs_coefficient_size():
    n, m = "9" * 4000, "8" * 4000  # about 13,300 bits each
    assert len(parse(f"({n}*x+{m}*y+z)^5").terms) == 21
    with pytest.raises(ParseError, match="weighted by coefficient size") as err:
        parse(f"({n}*x+{m}*y+z)^20")
    assert err.value.position == 8010
    # a power's coefficients grow to e times the base's bits: two 32-bit
    # coefficients to the 999th (about 0.25 s) count each of the 2,000 pairs
    # 1 + ((999*(32+2))^2/4 >> 20) = 276 times
    with pytest.raises(ParseError, match="weighted by coefficient size"):
        parse("(4294967295*x+4294967291)^999")
    # one pair of 4,000-digit literals counts 1 + 13,288^2 >> 20 = 169 pairs
    assert parse(f"{n}*{m}") == Polynomial(NAMES, {(0, 0, 0): int(n) * int(m)})
    with pytest.raises(ParseError, match="weighted by coefficient size"):
        parse(f"({n}*(x+y+z)^20)*({m}*(x+y+z)^20)")
    # the canonical text of a large coefficient still round-trips
    p = Polynomial(NAMES, {(2, 1, 0): GaussianRational(Fraction(int(n), int(m) + 1), 3)})
    assert parse(str(p)) == p


def test_parse_sum_is_linear_in_terms_read():
    # a sum used to copy its left operand at every '+', so each '+0' after
    # a 9,460-term polynomial cost 9,460 term copies instead of one addition
    left = "(x+y+z)^42*(" + "+".join(f"x^{50 * k}" for k in range(10)) + ")"
    zeros = "+0" * 20_000

    def best_of_three(text):
        times = []
        for _ in range(3):
            start = perf_counter()
            parse(text)
            times.append(perf_counter() - start)
        return min(times)

    # the '+0's cost about as much after the large operand as after x
    # (11 times as much when the left operand was copied)
    after_left = best_of_three(left + zeros) - best_of_three(left)
    assert after_left < 3 * best_of_three("x" + zeros)


@pytest.mark.parametrize(
    "opening, closing",
    [("(", ")"), ("-", ""), ("-(", ")")],
    ids=["parentheses", "unary-minus", "mixed"],
)
def test_parse_nesting_limit(opening, closing):
    levels = MAX_NESTING // len(opening)
    assert parse(opening * levels + "x" + closing * levels) == parse("x")  # even levels
    with pytest.raises(ParseError):
        parse(opening * (levels + 1) + "x" + closing * (levels + 1))
    with pytest.raises(ParseError):
        parse(opening * 3000 + "x" + closing * 3000)

"""Quotient ring normal forms, element arithmetic, point evaluation."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperconn import GaussianRational, Polynomial, QuotientRing, parse
from hyperconn.polycore import _add_terms, _sum_of_products
from helpers import NAMES, assert_refused, pairwise_mul, random_element, record_calls

SPHERE = QuotientRing(parse("x^2+y^2+z^2-1"))
CUBIC = QuotientRing(parse("x^2*y+y^2*z+x*z^2-1"))

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
small_polynomials = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * len(NAMES)),
    st.builds(GaussianRational, fractions, fractions),
    max_size=4,
).map(lambda terms: Polynomial(NAMES, terms))


def test_ring_rejects_degenerate_modulus():
    with pytest.raises(ValueError):
        QuotientRing(Polynomial(NAMES))
    with pytest.raises(ValueError):
        QuotientRing(Polynomial(NAMES, {(0, 0, 0): 5}))


def test_ring_equality_is_content_based():
    other = QuotientRing(parse("x^2+y^2+z^2-1"))
    assert other == SPHERE
    assert hash(other) == hash(SPHERE)
    assert QuotientRing(parse("x^3+y^2+z^2-1")) != SPHERE
    # elements of content-equal rings interoperate
    a = SPHERE.element("x")
    b = other.element("y")
    assert str(a * b) == "x*y"


def test_element_coercion_forms():
    assert SPHERE.element("x^2+y^2+z^2") == SPHERE.one()
    assert SPHERE.element(3).rep == Polynomial(NAMES, {(0, 0, 0): 3})
    assert SPHERE.element(GaussianRational(0, 1)) == SPHERE.element("i")
    assert SPHERE.element(SPHERE.variable(0)) == SPHERE.element("x")
    with pytest.raises(ValueError):
        SPHERE.element(parse("x", names=("x",)))


def test_element_arithmetic_respects_reduction():
    rng = Random(90125)
    for _ in range(60):
        a = random_element(rng, SPHERE)
        b = random_element(rng, SPHERE)
        assert (a + b) - b == a
        assert a * b == b * a
        assert (a * b).rep == SPHERE.nf((a.rep * b.rep)).rep
        assert (a * SPHERE.one()) == a
        assert (a * 2 - a - a).is_zero


@pytest.mark.parametrize("ring", [SPHERE, CUBIC], ids=["sphere", "cubic"])
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(a=small_polynomials, b=small_polynomials, c=small_polynomials)
def test_element_ring_laws(ring, a, b, c):
    a, b, c = ring.element(a), ring.element(b), ring.element(c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("ring", [SPHERE, CUBIC], ids=["sphere", "cubic"])
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(a=small_polynomials, c=st.builds(GaussianRational, fractions, fractions))
def test_constant_factor_leaves_a_normal_form(ring, a, c):
    # a constant, zero included, times a normal form is a normal form, so the
    # product skips nf on either side and still equals the reduced product
    a, c = ring.element(a), ring.element(c)
    expected = ring.nf(a.rep * c.rep)
    with pytest.MonkeyPatch.context() as patch:
        calls = record_calls(patch, QuotientRing, "nf")
        products = (a * c, c * a)
    assert products == (expected, expected)
    assert str(products[0]) == str(expected)
    assert calls == []


def operand_terms(pairs):
    # every operand's terms in their order, to show that a call changed none
    return [list(p.terms.items()) for pair in pairs for p in pair]


def is_an_operand_map(terms, pairs):
    # a sum or product that adopted an operand's own map would change that
    # operand as soon as it was added to
    return any(terms is p.terms for pair in pairs for p in pair)


def per_sum_loop(ring, pairs):
    # the loop QuotientRing.dot replaced: a new Polynomial per +, then one nf;
    # each product is the per-pair reference, since a * b is the kernel of dot
    acc = Polynomial.zero(ring.names)
    for a, b in pairs:
        acc = acc + pairwise_mul(a, b)
    return ring.nf(acc)


@pytest.mark.parametrize("ring", [SPHERE, CUBIC], ids=["sphere", "cubic"])
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(pairs=st.lists(st.tuples(small_polynomials, small_polynomials), max_size=4),
       cancel=st.booleans())
@example(pairs=[(Polynomial.zero(NAMES), parse("x+1")), (parse("x*y-i"), parse("2*z"))],
         cancel=True)
# a product by one is the other operand's value, but never its map
@example(pairs=[(parse("y"), parse("1"))], cancel=False)
@example(pairs=[(parse("y"), parse("1"))], cancel=True)
def test_dot_matches_per_sum_loop(ring, pairs, cancel):
    if cancel and pairs:
        pairs = pairs + [(-pairs[-1][0], pairs[-1][1])]  # the last two pairs cancel
    before = operand_terms(pairs)
    got, want = ring.dot(pairs), per_sum_loop(ring, pairs)
    assert list(got.rep.terms.items()) == list(want.rep.terms.items())
    assert str(got) == str(want)
    assert operand_terms(pairs) == before
    assert not is_an_operand_map(got.rep.terms, pairs)


def per_pair_terms(pairs):
    # the per-pair sum _sum_of_products replaced: one Polynomial per product,
    # added into the running map coefficient by coefficient; a * b would be
    # _sum_of_products itself, so each product is the per-pair reference
    acc = {}
    for a, b in pairs:
        if a and b:
            _add_terms(acc, pairwise_mul(a, b).terms)
    return acc


# denominators up to 12 make the pairs' dl*dr differ, so most sums rescale
twelfths = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
operands = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * len(NAMES)),
    st.builds(GaussianRational, twelfths, twelfths),
    max_size=4,
).map(lambda terms: Polynomial(NAMES, terms))


@pytest.mark.parametrize("ring", [SPHERE, CUBIC], ids=["sphere", "cubic"])
@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(pairs=st.lists(st.tuples(operands, operands), max_size=8),
       negated=st.lists(st.integers(0, 7), max_size=3))
@example(pairs=[(parse("x/2+y"), parse("z+1")), (parse("x/3+1"), parse("y-i/5")),
                (parse("2*x"), parse("x-y/4")), (Polynomial.zero(NAMES), parse("x+y"))],
         negated=[])
@example(pairs=[(parse("x/2+y"), parse("z/3+1")), (parse("x/6"), parse("y"))], negated=[0, 1])
# the first one-term product is adopted as the sum, and later ones merge into it
@example(pairs=[(parse("x+y"), parse("1")), (parse("z"), parse("x-2")), (parse("1"), parse("y"))],
         negated=[0])
def test_sum_of_products_matches_per_pair_products(ring, pairs, negated):
    # each index in negated appends (-a, b) for that pair, which cancels it exactly
    pairs = pairs + [(-pairs[k][0], pairs[k][1]) for k in negated if k < len(pairs)]
    before = operand_terms(pairs)
    got = _sum_of_products((a, b) for a, b in pairs)  # MatrixA passes a generator too
    want = per_pair_terms(pairs)
    assert got == want
    assert operand_terms(pairs) == before
    assert not is_an_operand_map(got, pairs)
    reduced = ring.nf(Polynomial._raw(NAMES, got))
    assert list(reduced.rep.terms.items()) == list(
        ring.nf(Polynomial._raw(NAMES, want)).rep.terms.items())
    assert list(ring.dot((a, b) for a, b in pairs).rep.terms.items()) == list(
        reduced.rep.terms.items())


@pytest.mark.parametrize("operand", ["x", "x+y"], ids=["one-term", "multi-term"])
def test_dot_rejects_mismatched_names_as_a_product_does(operand):
    a, b = parse(operand), parse("x+w", names=("x", "y", "w"))
    with pytest.raises(ValueError) as product:
        a * b
    with pytest.raises(ValueError) as dot:
        SPHERE.dot(iter([(parse("x+1"), parse("y-z")), (a, b)]))
    assert str(dot.value) == str(product.value)


def test_dot_multiplies_only_the_one_term_pairs_and_reduces_once(monkeypatch):
    one_term = [(parse("2*x"), parse("y+z/3")), (parse("x-y"), parse("i*z")),
                (parse("x/5"), parse("y"))]
    multi_term = [(parse("x+y/2"), parse("z-1")), (parse("x^2-i"), parse("y/3+z"))]
    zero = [(Polynomial.zero(NAMES), parse("x+y")), (parse("x"), Polynomial.zero(NAMES))]
    pairs = one_term + zero + multi_term
    want = CUBIC.nf(Polynomial._raw(NAMES, per_pair_terms(pairs)))
    products = record_calls(monkeypatch, Polynomial, "__mul__")
    reductions = record_calls(monkeypatch, QuotientRing, "nf")
    got = CUBIC.dot(pair for pair in pairs)
    assert (len(products), len(reductions)) == (len(one_term), 1)
    assert got == want


def test_scalar_minus_element():
    # 1 - (x^2 + y) = (x^2 + y^2 + z^2) - x^2 - y on the sphere
    assert 1 - SPHERE.element("x^2+y") == SPHERE.element("y^2+z^2-y")
    # i/2 - x^3*y, reduced by hand: x^3*y = x*y - x*y^3 - x*y*z^2
    assert GaussianRational(0, Fraction(1, 2)) - SPHERE.element("x^3*y") == SPHERE.element(
        "i/2-x*y+x*y^3+x*y*z^2"
    )
    assert str(Fraction(3, 4) - SPHERE.element("z")) == "-z+3/4"


def test_element_pow():
    x = SPHERE.element("x")
    assert x ** 4 == x * x * x * x
    assert x ** 0 == SPHERE.one()
    assert (SPHERE.element("x^2+y^2+z^2")) ** 5 == SPHERE.one()


@pytest.mark.parametrize(
    "base",
    [GaussianRational(2, 1), parse("x+i*y"), parse("3*x"), parse("0"), SPHERE.element("x+y")],
    ids=["gaussian", "polynomial", "monomial", "zero", "element"],
)
def test_power_rejects_negative_and_fractional_exponents(base):
    # a polynomial checks its exponent before it expands the power; a
    # coefficient and a ring element, in the product loop they share
    for exponent in (-1, 1.5):
        with pytest.raises(ValueError, match="non-negative integer"):
            base ** exponent
    assert base ** 1 == base


# Each refusal of this module that a call makes with one message, once: the
# call, the exception's exact type and its whole message. A point of the
# wrong length is refused by Polynomial.evaluate, and a sum or difference
# over two rings by RingElement._coerce (tests/test_conn.py).
@pytest.mark.parametrize("misuse, error, message", [
    pytest.param(lambda: SPHERE.element(CUBIC.one()), ValueError,
                 "element belongs to a different ring", id="element-of-another-ring"),
    pytest.param(lambda: SPHERE.element(1.5), TypeError, "cannot coerce float into the ring",
                 id="float-element"),
    pytest.param(lambda: SPHERE.one() * CUBIC.one(), ValueError,
                 "elements belong to different rings", id="product-over-two-rings"),
    pytest.param(lambda: SPHERE.require_point_on_surface((1, 1, 0)), ValueError,
                 "point is not on the hypersurface: f(point) = 1", id="point-off-the-surface"),
    # evaluate leaves that refusal to require_point_on_surface, as does
    # MatrixA.rank_at_point (tests/test_matring.py)
    pytest.param(lambda: SPHERE.element("x*y + z").evaluate((2, 0, 0)), ValueError,
                 "point is not on the hypersurface: f(point) = 3", id="evaluate-off-the-surface"),
])
def test_misuse_is_refused(misuse, error, message):
    assert_refused(misuse, error, message)


def test_nf_module_function():
    value = SPHERE.nf(parse("x^4"))
    assert value == SPHERE.element("x^4")
    assert str(value) == str(SPHERE.element(parse("x^4")))


def test_point_checks():
    assert SPHERE.require_point_on_surface((1, 0, 0)) == (1, 0, 0)
    assert_refused(lambda: SPHERE.require_point_on_surface((1, 1, 1)), ValueError,
                   "point is not on the hypersurface: f(point) = 2")


def test_evaluate_requires_on_surface_point():
    # off-surface points are refused in test_misuse_is_refused
    a = SPHERE.element("x*y + z")
    value = a.evaluate((0, 1, 0))
    assert value == GaussianRational(0)


def test_evaluate_gaussian_point():
    # (3i/4)^2 + (5/4)^2 = -9/16 + 25/16 = 1, an exact Gaussian surface point
    from fractions import Fraction

    point = (GaussianRational(0, Fraction(3, 4)), 0, Fraction(5, 4))
    assert SPHERE.require_point_on_surface(point) == point
    a = SPHERE.element("x^2")
    assert a.evaluate(point) == GaussianRational(Fraction(-9, 16))


def test_sums_of_reduced_stay_reduced():
    rng = Random(61409)
    for _ in range(40):
        a = random_element(rng, SPHERE)
        b = random_element(rng, SPHERE)
        total = a + b
        assert SPHERE.nf(total.rep) == total

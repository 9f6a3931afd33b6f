"""Matrix algebra over the quotient: products, traces, char polys, rank."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from hyperconn import (
    CharPoly,
    GaussianRational,
    MatrixA,
    QuotientRing,
    commutator,
    parse,
)
from hyperconn.matring import trace_product
from helpers import random_element, random_matrix, random_polynomial

SPHERE = QuotientRing(parse("x^2+y^2+z^2-1"))


def test_constructors_and_accessors():
    m = MatrixA.from_rows(SPHERE, [["x", "y"], ["z", "1"]])
    assert m.rows == 2 and m.cols == 2
    assert str(m.entry(0, 1)) == "y"
    assert m.row(1) == (SPHERE.element("z"), SPHERE.one())
    assert m.column(0) == (SPHERE.element("x"), SPHERE.element("z"))
    assert MatrixA.identity(SPHERE, 2).is_square
    assert MatrixA.zero(SPHERE, 2, 3).is_zero
    with pytest.raises(ValueError):
        MatrixA.from_rows(SPHERE, [["x"], ["y", "z"]])


def test_ring_algebra_random():
    rng = Random(300111)
    ident = MatrixA.identity(SPHERE, 3)
    for _ in range(40):
        a = random_matrix(rng, SPHERE, 3)
        b = random_matrix(rng, SPHERE, 3)
        c = random_matrix(rng, SPHERE, 3)
        assert (a + b) - b == a
        assert a * ident == a and ident * a == a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        scalar = random_element(rng, SPHERE, max_degree=1, max_terms=2)
        assert (a.scale(scalar)) * b == (a * b).scale(scalar)


def test_mul_vector_matches_matrix_product():
    rng = Random(52290)
    for _ in range(20):
        a = random_matrix(rng, SPHERE, 3)
        v = tuple(random_element(rng, SPHERE) for _ in range(3))
        column = MatrixA.from_rows(SPHERE, zip(*[v]))
        product = a * column
        assert a.mul_vector(v) == tuple(product.entry(k, 0) for k in range(3))


def test_trace_linear_and_cyclic():
    rng = Random(61855)
    for _ in range(40):
        a = random_matrix(rng, SPHERE, 3)
        b = random_matrix(rng, SPHERE, 3)
        assert (a + b).trace() == a.trace() + b.trace()
        assert (a * b).trace() == (b * a).trace()
        assert commutator(a, b).trace().is_zero


def test_trace_product_is_trace_of_product():
    rng = Random(771203)
    for _ in range(20):
        a = random_matrix(rng, SPHERE, 3)
        b = random_matrix(rng, SPHERE, 3)
        assert trace_product(a, b) == (a * b).trace()
        assert str(trace_product(a, b)) == str((a * b).trace())
    wide = MatrixA.from_rows(SPHERE, [[random_polynomial(rng) for _ in range(3)] for _ in range(2)])
    tall = MatrixA.from_rows(SPHERE, [[random_polynomial(rng) for _ in range(2)] for _ in range(3)])
    assert trace_product(wide, tall) == (wide * tall).trace()
    assert trace_product(tall, wide) == (tall * wide).trace()
    with pytest.raises(ValueError):
        trace_product(wide, wide)
    with pytest.raises(ValueError):
        trace_product(random_matrix(rng, SPHERE, 3), tall)
    other = QuotientRing(parse("x^2+y^2+z^2-2"))
    with pytest.raises(ValueError):
        trace_product(MatrixA.identity(SPHERE, 2), MatrixA.identity(other, 2))


@pytest.mark.parametrize(
    "ring", [SPHERE, QuotientRing(parse("x^3+2*y^2*z-z^4+x*y-1"))], ids=["sphere", "quartic"]
)
def test_commutator_matches_two_products(ring):
    # the one-pass commutator against the plain expression a*b - b*a
    rng = Random(40917)
    for n in (1, 2, 3):
        for _ in range(10):
            a = random_matrix(rng, ring, n)
            b = random_matrix(rng, ring, n)
            assert commutator(a, b) == a * b - b * a
            assert commutator(a, a).is_zero
            assert commutator(b, a) == -commutator(a, b)


def test_commutator_requires_square_same_shape():
    a = MatrixA.zero(SPHERE, 2, 3)
    with pytest.raises(ValueError):
        commutator(a, a)


def test_determinant_multiplicative():
    rng = Random(71225)
    for _ in range(4):
        a = random_matrix(rng, SPHERE, 1)
        assert a.determinant() == a.entry(0, 0)
    for _ in range(15):
        a = random_matrix(rng, SPHERE, 2)
        b = random_matrix(rng, SPHERE, 2)
        assert (a * b).determinant() == a.determinant() * b.determinant()
    for _ in range(6):
        a = random_matrix(rng, SPHERE, 3, max_degree=1, max_terms=1)
        b = random_matrix(rng, SPHERE, 3, max_degree=1, max_terms=1)
        assert (a * b).determinant() == a.determinant() * b.determinant()
    for _ in range(3):
        a = random_matrix(rng, SPHERE, 4, max_degree=1, max_terms=1)
        b = random_matrix(rng, SPHERE, 4, max_degree=1, max_terms=1)
        assert (a * b).determinant() == a.determinant() * b.determinant()


def test_char_poly_shape_and_known_values():
    ident = MatrixA.identity(SPHERE, 2)
    cp = ident.char_poly()
    # (t-1)^2 = t^2 - 2t + 1
    assert cp.degree == 2
    assert cp.coefficient(2) == SPHERE.one()
    assert cp.coefficient(1) == SPHERE.element(-2)
    assert cp.coefficient(0) == SPHERE.one()
    assert str(cp) == "t^2 + (-2)*t + 1"
    m = MatrixA.from_rows(SPHERE, [["x", "y"], ["0", "z"]])
    cp2 = m.char_poly()
    assert cp2.coefficient(1) == -(SPHERE.element("x") + SPHERE.element("z"))
    assert cp2.coefficient(0) == SPHERE.element("x*z")
    # a zero middle coefficient is left out: t^2 - 1
    swap = MatrixA.from_rows(SPHERE, [["0", "1"], ["1", "0"]]).char_poly()
    assert str(swap) == "t^2 + (-1)"


def test_char_poly_trace_and_det_coefficients():
    rng = Random(140580)
    for _ in range(20):
        a = random_matrix(rng, SPHERE, 3, max_degree=1, max_terms=2)
        cp = a.char_poly()
        assert cp.degree == 3
        assert cp.coefficient(2) == -a.trace()
        assert cp.coefficient(0) == -a.determinant()


def test_cayley_hamilton_spot():
    rng = Random(222333)
    for _ in range(10):
        a = random_matrix(rng, SPHERE, 2, max_degree=1, max_terms=2)
        assert cp_evaluates_to_zero(a)


def cp_evaluates_to_zero(a) -> bool:
    return a.char_poly().evaluate_matrix(a).is_zero


def test_char_poly_multiplication():
    a = MatrixA.identity(SPHERE, 2).char_poly()
    b = MatrixA.from_rows(SPHERE, [["x"]]).char_poly()
    product = a * b
    assert product.degree == 3
    assert isinstance(product, CharPoly)
    assert product.coefficient(3) == SPHERE.one()


def test_scalar_times_matrix():
    m = MatrixA.from_rows(SPHERE, [["x", "y"], ["z", "1"]])
    assert 2 * m == MatrixA.from_rows(SPHERE, [["2*x", "2*y"], ["2*z", "2"]])
    assert GaussianRational(0, Fraction(1, 3)) * m == MatrixA.from_rows(
        SPHERE, [["i*x/3", "i*y/3"], ["i*z/3", "i/3"]]
    )
    # x*x reduces to 1 - y^2 - z^2 on the sphere
    assert SPHERE.element("x") * m == MatrixA.from_rows(
        SPHERE, [["1-y^2-z^2", "x*y"], ["x*z", "x"]]
    )


def test_char_poly_hash_follows_equality():
    # three matrices with characteristic polynomial t^2 - 2t + 1, and one other
    one = SPHERE.one()
    same = [
        MatrixA.identity(SPHERE, 2).char_poly(),
        MatrixA.from_rows(SPHERE, [["1", "x"], ["0", "1"]]).char_poly(),
        CharPoly(SPHERE, [one, SPHERE.element(-2), one]),
    ]
    other = MatrixA.from_rows(SPHERE, [["x", "0"], ["0", "1"]]).char_poly()
    assert len({hash(cp) for cp in same}) == 1
    assert {*same, other} == {same[0], other} and len({*same, other}) == 2
    assert {cp: k for k, cp in enumerate(same)} == {same[0]: 2}


def test_rank_at_point():
    m = MatrixA.from_rows(SPHERE, [["x", "y"], ["y", "x"]])
    # at (1,0,0): [[1,0],[0,1]] has rank 2
    assert m.rank_at_point((1, 0, 0)) == 2
    # at (0,1,0): [[0,1],[1,0]] has rank 2
    assert m.rank_at_point((0, 1, 0)) == 2
    degenerate = MatrixA.from_rows(SPHERE, [["x", "x"], ["x", "x"]])
    assert degenerate.rank_at_point((1, 0, 0)) == 1
    assert MatrixA.zero(SPHERE, 2, 2).rank_at_point((0, 0, 1)) == 0
    with pytest.raises(ValueError):
        m.rank_at_point((1, 1, 1))


def test_to_json_nested_strings():
    m = MatrixA.from_rows(SPHERE, [["x", "-y"], ["i*z", "0"]])
    assert m.to_json() == [["x", "-y"], ["i*z", "0"]]
    assert str(m) == "[[x, -y], [i*z, 0]]"


def test_reduction_happens_in_products():
    x = "x^2+y^2+z^2"
    m = MatrixA.from_rows(SPHERE, [[x, "0"], ["0", x]])
    assert m == MatrixA.identity(SPHERE, 2)
    assert (m * m) == MatrixA.identity(SPHERE, 2)

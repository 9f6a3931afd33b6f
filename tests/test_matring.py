"""Matrix algebra over the quotient: products, traces, char polys, rank."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperconn import (
    CharPoly,
    GaussianRational,
    MatrixA,
    Polynomial,
    QuotientRing,
    commutator,
    parse,
)
from hyperconn.matring import trace_product
from helpers import (
    NAMES,
    assert_refused,
    random_element,
    random_matrix,
    random_polynomial,
    record_calls,
)

SPHERE = QuotientRing(parse("x^2+y^2+z^2-1"))


def test_constructors_and_accessors():
    m = MatrixA.from_rows(SPHERE, [["x", "y"], ["z", "1"]])
    assert m.rows == 2 and m.cols == 2
    assert str(m.entry(0, 1)) == "y"
    assert m.row(1) == (SPHERE.element("z"), SPHERE.one())
    assert m.column(0) == (SPHERE.element("x"), SPHERE.element("z"))
    assert MatrixA.identity(SPHERE, 2).is_square
    assert MatrixA.zero(SPHERE, 2, 3).is_zero


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


OTHER = QuotientRing(parse("x^2+y^2+z^2-2"))


def t_minus_one_squared() -> CharPoly:
    return MatrixA.identity(SPHERE, 2).char_poly()


# Each refusal of this module that a call makes with one message, once: the
# call, the exception's exact type and its whole message. A characteristic
# polynomial leaves the refusal of a matrix of another ring or shape to the
# product and sum of its Horner loop, and rank_at_point an off-surface point
# to QuotientRing.require_point_on_surface.
@pytest.mark.parametrize("misuse, error, message", [
    pytest.param(lambda: MatrixA(SPHERE, 0, 1, []), ValueError,
                 "matrix dimensions must be positive", id="no-rows"),
    pytest.param(lambda: MatrixA(SPHERE, 1, 2, [SPHERE.one()]), ValueError,
                 "expected 2 entries, got 1", id="too-few-entries"),
    pytest.param(lambda: MatrixA(SPHERE, 1, 1, ["x"]), TypeError,
                 "entries must be ring elements; use from_rows to coerce", id="text-entry"),
    pytest.param(lambda: MatrixA(SPHERE, 1, 1, [OTHER.one()]), ValueError,
                 "entry belongs to a different ring", id="entry-of-another-ring"),
    pytest.param(lambda: MatrixA.from_rows(SPHERE, []), ValueError,
                 "matrix needs at least one row", id="empty-rows"),
    # six entries, so without the check these rows would make a 3x2 matrix
    pytest.param(lambda: MatrixA.from_rows(SPHERE, [[1, 2], [3], [4, 5, 6]]), ValueError,
                 "rows must all have the same length", id="ragged-rows"),
    pytest.param(lambda: MatrixA.identity(SPHERE, 2) * MatrixA.identity(OTHER, 2), ValueError,
                 "matrices belong to different rings", id="product-over-two-rings"),
    pytest.param(lambda: MatrixA.identity(SPHERE, 2) * MatrixA.zero(SPHERE, 3, 1), ValueError,
                 "cannot multiply 2x2 by 3x1", id="product-of-misfit-shapes"),
    pytest.param(lambda: MatrixA.zero(SPHERE, 2, 3).trace(), ValueError,
                 "trace requires a square matrix", id="trace-of-wide"),
    pytest.param(lambda: MatrixA.zero(SPHERE, 2, 3).determinant(), ValueError,
                 "determinant requires a square matrix", id="determinant-of-wide"),
    pytest.param(lambda: MatrixA.identity(SPHERE, 7).char_poly(), ValueError,
                 "cofactor expansion is limited to n <= 6", id="char-poly-of-7x7"),
    pytest.param(lambda: trace_product(MatrixA.zero(SPHERE, 2, 3), MatrixA.zero(SPHERE, 2, 3)),
                 ValueError, "a*b is not square: 2x3 by 2x3", id="trace-product-not-square"),
    # a*b is defined here, but 3x2
    pytest.param(lambda: trace_product(MatrixA.zero(SPHERE, 3, 3), MatrixA.zero(SPHERE, 3, 2)),
                 ValueError, "a*b is not square: 3x3 by 3x2", id="trace-product-3x2"),
    pytest.param(lambda: trace_product(MatrixA.identity(SPHERE, 2), MatrixA.identity(OTHER, 2)),
                 ValueError, "matrices belong to different rings", id="trace-product-of-two-rings"),
    pytest.param(lambda: commutator(MatrixA.identity(SPHERE, 2), 1), TypeError,
                 "commutator needs two matrices", id="commutator-with-a-number"),
    pytest.param(lambda: commutator(MatrixA.zero(SPHERE, 2, 3), MatrixA.zero(SPHERE, 2, 3)),
                 ValueError, "commutator requires square matrices", id="commutator-of-wide"),
    pytest.param(lambda: CharPoly(SPHERE, []), ValueError,
                 "a characteristic polynomial needs coefficients", id="no-coefficients"),
    pytest.param(lambda: CharPoly(SPHERE, [1]), ValueError,
                 "coefficients must be elements of the given ring", id="integer-coefficient"),
    pytest.param(lambda: CharPoly(SPHERE, [OTHER.one()]), ValueError,
                 "coefficients must be elements of the given ring", id="foreign-coefficient"),
    pytest.param(lambda: CharPoly(SPHERE, [SPHERE.element(2)]), ValueError,
                 "characteristic polynomials are monic", id="not-monic"),
    pytest.param(lambda: t_minus_one_squared().coefficient(3), ValueError,
                 "no coefficient of degree 3", id="coefficient-above-degree"),
    pytest.param(lambda: t_minus_one_squared() * MatrixA.identity(OTHER, 2).char_poly(),
                 ValueError, "characteristic polynomials over different rings",
                 id="char-polys-over-two-rings"),
    pytest.param(lambda: MatrixA.identity(SPHERE, 2).rank_at_point((1, 1, 1)), ValueError,
                 "point is not on the hypersurface: f(point) = 2", id="rank-off-the-surface"),
    pytest.param(lambda: t_minus_one_squared().evaluate_matrix(MatrixA.zero(SPHERE, 2, 3)),
                 ValueError, "cannot multiply 2x3 by 2x2", id="substitute-a-wide-matrix"),
    pytest.param(lambda: t_minus_one_squared().evaluate_matrix(MatrixA.identity(OTHER, 2)),
                 ValueError, "matrices belong to different rings",
                 id="substitute-over-another-ring"),
])
def test_misuse_is_refused(misuse, error, message):
    assert_refused(misuse, error, message)


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


def test_constant_scale_and_cayley_hamilton_reduce_only_products(monkeypatch):
    # a constant times a normal form is one: scale(1/2) reduces nothing, and
    # Horner's identity.scale(c) per coefficient adds no reduction to the 4
    # products result*g of 9 entries each (72 nf calls when scale reduced)
    g = MatrixA.from_rows(SPHERE, [["x+1", "y", "z-i"], ["2*x", "y*z+1", "3"], ["x-y", "1/2", "z"]])
    half = MatrixA.from_rows(
        SPHERE, [["x/2+1/2", "y/2", "z/2-i/2"], ["x", "y*z/2+1/2", "3/2"], ["x/2-y/2", "1/4", "z/2"]]
    )
    cp = g.char_poly()
    calls = record_calls(monkeypatch, QuotientRing, "nf")
    assert g.scale(Fraction(1, 2)) == half
    assert calls == []
    assert cp.evaluate_matrix(g).is_zero
    assert len(calls) == 36


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


def test_to_json_nested_strings():
    m = MatrixA.from_rows(SPHERE, [["x", "-y"], ["i*z", "0"]])
    assert m.to_json() == [["x", "-y"], ["i*z", "0"]]
    assert str(m) == "[[x, -y], [i*z, 0]]"


def test_reduction_happens_in_products():
    x = "x^2+y^2+z^2"
    m = MatrixA.from_rows(SPHERE, [[x, "0"], ["0", x]])
    assert m == MatrixA.identity(SPHERE, 2)
    assert (m * m) == MatrixA.identity(SPHERE, 2)


# The cofactor expansion that reduced every pivot-minor product on its own
# and then added the reduced results; it stays here only as the reference
# for the expansion that reduces each coefficient once.
def ref_tpoly_mul(ring, a, b):
    out = [ring.zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero:
            continue
        for j, cb in enumerate(b):
            if cb.is_zero:
                continue
            out[i + j] = out[i + j] + ca * cb
    return out


def ref_tpoly_add(ring, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, cb in enumerate(b):
        out[i] = out[i] + cb
    return out


def ref_det_cofactor_tpoly(ring, grid):
    n = len(grid)
    if n == 1:
        return grid[0][0]
    total = [ring.zero()]
    sign = 1
    for j in range(n):
        pivot = grid[0][j]
        if any(not c.is_zero for c in pivot):
            minor = [[row[k] for k in range(n) if k != j] for row in grid[1:]]
            term = ref_tpoly_mul(ring, pivot, ref_det_cofactor_tpoly(ring, minor))
            if sign < 0:
                term = [-c for c in term]
            total = ref_tpoly_add(ring, total, term)
        sign = -sign
    return total


def ref_determinant(g):
    return ref_det_cofactor_tpoly(g.ring, [[[e] for e in g.row(i)] for i in range(g.rows)])[0]


def ref_char_poly(g):
    """Coefficients of det(tI - g), degree n first, by the reference expansion."""
    one, zero = g.ring.one(), g.ring.zero()
    grid = [[[-g.entry(i, j), one] if i == j else [-g.entry(i, j)] for j in range(g.cols)]
            for i in range(g.rows)]
    coeffs = ref_det_cofactor_tpoly(g.ring, grid)
    return list(reversed(coeffs + [zero] * (g.rows + 1 - len(coeffs))))


def ref_char_poly_product(p, q):
    a, b = list(reversed(p.coefficients)), list(reversed(q.coefficients))
    return list(reversed(ref_tpoly_mul(p.ring, a, b)))


def terms(elements):
    """Each element's terms in order, so equal lists mean equal printed forms."""
    return [list(e.rep.terms.items()) for e in elements]


def canonical_terms(elements):
    """terms() of each element reduced once more. The reference adds reduced
    products, so its terms come in the order they were added; one more nf
    (which keeps every value) puts them in the grevlex order of a single
    reduction, the order the expansion under test gives."""
    return [list(e.ring.nf(e.rep).rep.terms.items()) for e in elements]


DENSE = MatrixA.from_rows(SPHERE, [["x+1", "y", "z-i"], ["2*x", "y*z+1", "3"],
                                   ["x-y", "1/2", "z"]])

thirds = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
# empty term maps are common, so zero pivots and zero minors are too
entries = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(NAMES)),
                          st.builds(GaussianRational, thirds, thirds), max_size=3)


@st.composite
def square_matrices(draw):
    """1x1 to 4x4 matrices over the sphere; one row may be all zero."""
    n = draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    zero_row = draw(st.integers(-1, n - 1))  # -1 keeps every row
    if zero_row >= 0:
        rows[zero_row] = [{}] * n
    return MatrixA.from_rows(SPHERE, [[Polynomial(NAMES, e) for e in row] for row in rows])


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(square_matrices(), square_matrices())
@example(DENSE, MatrixA.from_rows(SPHERE, [["x"]]))
@example(MatrixA.from_rows(SPHERE, [["0", "0", "0"], ["x", "y", "1"], ["z", "2", "i*x"]]),
         MatrixA.from_rows(SPHERE, [["0", "x", "0", "y"], ["1", "0", "z", "0"],
                                    ["0", "0", "0", "0"], ["x-y", "0", "1/2", "0"]]))
def test_cofactor_expansion_matches_the_per_product_reference(g, h):
    # an all-zero first row makes the determinant the [ring.zero()] of no
    # pivots; zero pivots are skipped, odd columns carry the minus sign, and
    # g and h differ in size, so the char poly factors differ in degree
    assert terms([g.determinant()]) == canonical_terms([ref_determinant(g)])
    p, q = g.char_poly(), h.char_poly()
    assert terms(p.coefficients) == canonical_terms(ref_char_poly(g))
    assert terms((p * q).coefficients) == canonical_terms(ref_char_poly_product(p, q))


def test_cofactor_expansion_reduces_once_per_coefficient(monkeypatch):
    # one nf per coefficient of each minor: the 2x2 minors 1 each and the
    # top row 1 for the determinant; 2, 2 and 1 for the minors of tI - g and
    # 4 for its char poly; 7 for a product of two cubics
    calls = record_calls(monkeypatch, QuotientRing, "nf")
    DENSE.determinant()
    assert len(calls) == 4
    calls.clear()
    cp = DENSE.char_poly()
    assert len(calls) == 11
    calls.clear()
    cp * cp
    assert len(calls) == 7

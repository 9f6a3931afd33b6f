"""Cross-checks against sympy: the engine and an independent system agree.

sympy is used only here, as a second opinion; the package itself never
imports it.
"""

from __future__ import annotations

import json
from random import Random

import pytest
import sympy as sp

from hyperconn import (
    GaussianRational,
    QuotientRing,
    build_ellipsoid_cotangent,
    divide_remainder,
    parse,
    reference_expected,
)
from helpers import (
    load_module,
    nonzero_polynomial,
    prime_denominator_dividend,
    random_gaussian,
    random_matrix,
    random_polynomial,
    run_main,
)

X, Y, Z = sp.symbols("x y z")
SYMS = (X, Y, Z)


def to_sympy_coeff(c: GaussianRational):
    re = sp.Rational(c.re.numerator, c.re.denominator)
    im = sp.Rational(c.im.numerator, c.im.denominator)
    return re + im * sp.I


def to_sympy(poly):
    total = sp.Integer(0)
    for mono, coeff in poly.terms.items():
        term = to_sympy_coeff(coeff)
        for sym, e in zip(SYMS, mono):
            term *= sym**e
        total += term
    return sp.expand(total)


def divisible(diff, modulus) -> bool:
    diff = sp.expand(diff)
    if diff == 0:
        return True
    _, rem = sp.div(sp.Poly(diff, *SYMS, extension=True), sp.Poly(modulus, *SYMS, extension=True))
    return rem.is_zero


def test_gaussian_arithmetic_matches_sympy():
    rng = Random(101297)
    for _ in range(100):
        a = random_gaussian(rng)
        b = random_gaussian(rng)
        sa, sb = to_sympy_coeff(a), to_sympy_coeff(b)
        assert to_sympy_coeff(a + b) == sp.expand(sa + sb)
        assert to_sympy_coeff(a * b) == sp.expand(sa * sb)
        if not b.is_zero:
            assert sp.simplify(to_sympy_coeff(a / b) - sa / sb) == 0


def test_polynomial_product_matches_sympy():
    rng = Random(300733)
    for _ in range(40):
        a = random_polynomial(rng)
        b = random_polynomial(rng)
        assert to_sympy(a * b) == sp.expand(to_sympy(a) * to_sympy(b))
        assert to_sympy(a + b) == sp.expand(to_sympy(a) + to_sympy(b))


def test_divide_remainder_identity_holds_in_sympy():
    rng = Random(18510)
    for _ in range(30):
        p = random_polynomial(rng, max_degree=4, max_terms=5)
        f = nonzero_polynomial(rng, max_degree=3)
        q, rem = divide_remainder(p, f)
        left = sp.expand(to_sympy(q) * to_sympy(f) + to_sympy(rem))
        assert left == to_sympy(p)


def test_normal_form_difference_lies_in_the_ideal():
    ring = QuotientRing(parse("x^2+y^3+z^4-1"))
    modulus = to_sympy(ring.modulus)
    rng = Random(727272)
    for _ in range(30):
        p = random_polynomial(rng, max_degree=5, max_terms=5)
        reduced = ring.nf(p)
        assert divisible(to_sympy(p) - to_sympy(reduced.rep), modulus)


def test_determinant_matches_sympy_mod_f():
    ring = QuotientRing(parse("x^2+y^2+z^2-1"))
    modulus = to_sympy(ring.modulus)
    rng = Random(430012)
    for _ in range(12):
        m = random_matrix(rng, ring, 3, max_degree=1, max_terms=2)
        ours = m.determinant()
        theirs = sp.Matrix(
            [[to_sympy(m.entry(i, j).rep) for j in range(3)] for i in range(3)]
        ).det()
        assert divisible(to_sympy(ours.rep) - theirs, modulus)


def test_char_poly_matches_sympy_mod_f():
    ring = QuotientRing(parse("x^2+y^2+z^2-1"))
    modulus = to_sympy(ring.modulus)
    rng = Random(550044)
    t = sp.Symbol("t")
    for _ in range(8):
        m = random_matrix(rng, ring, 3, max_degree=1, max_terms=1)
        ours = m.char_poly()
        sym = sp.Matrix([[to_sympy(m.entry(i, j).rep) for j in range(3)] for i in range(3)])
        theirs = sym.charpoly(t).as_expr()
        for k in range(4):
            coeff = theirs.coeff(t, k)
            assert divisible(to_sympy(ours.coefficient(k).rep) - coeff, modulus)


def _sympy_ellipsoid(p, q, r):
    f = X**p + Y**q + Z**r - 1
    m = sp.Matrix(
        [
            [1 - X**p, -sp.Rational(p, q) * X ** (p - 1) * Y, -sp.Rational(p, r) * X ** (p - 1) * Z],
            [-sp.Rational(q, p) * X * Y ** (q - 1), 1 - Y**q, -sp.Rational(q, r) * Y ** (q - 1) * Z],
            [-sp.Rational(r, p) * X * Z ** (r - 1), -sp.Rational(r, q) * Y * Z ** (r - 1), 1 - Z**r],
        ]
    )
    return f, m


def test_ellipsoid_differentials_rederived_with_sympy():
    p, q, r = 2, 3, 4
    f, m = _sympy_ellipsoid(p, q, r)
    images = [
        (q * Y ** (q - 1), -p * X ** (p - 1), sp.Integer(0)),
        (r * Z ** (r - 1), sp.Integer(0), -p * X ** (p - 1)),
        (sp.Integer(0), r * Z ** (r - 1), -q * Y ** (q - 1)),
    ]
    ex = build_ellipsoid_cotangent(p, q, r)
    # the hand-typed display is the Euler-vector projector I - grad(f)*E^T
    grad = sp.Matrix([sp.diff(f, s) for s in SYMS])
    euler = sp.Matrix([X / p, Y / q, Z / r])
    assert sp.expand(sp.eye(3) - grad * euler.T - m) == sp.zeros(3, 3)
    golden_m = reference_expected("ellipsoid", "M", p, q, r)
    for i in range(3):
        for j in range(3):
            assert divisible(to_sympy(golden_m.entry(i, j).rep) - m[i, j], f)
            assert divisible(to_sympy(ex.presentation.phi.entry(i, j).rep) - m[i, j], f)
    golden_dfvec = reference_expected("ellipsoid", "dFvec", p, q, r)
    for ours, theirs in zip(golden_dfvec, grad):
        assert divisible(to_sympy(ours.rep) - theirs, f)
    for index, image in enumerate(images, 1):
        derived = m.applyfunc(
            lambda e: sp.expand(
                image[0] * sp.diff(e, X) + image[1] * sp.diff(e, Y) + image[2] * sp.diff(e, Z)
            )
        )
        template = reference_expected("ellipsoid", f"d{index}M", p, q, r)
        for i in range(3):
            for j in range(3):
                ours = to_sympy(template.entry(i, j).rep)
                assert divisible(ours - derived[i, j], f)
        computed = ex.derivations[index - 1].apply_to_matrix(ex.presentation.phi)
        for i in range(3):
            for j in range(3):
                assert divisible(to_sympy(computed.entry(i, j).rep) - derived[i, j], f)


def test_sphere_corrected_involution_squares_to_identity_in_sympy():
    for p, q, r in [(1, 1, 1), (2, 1, 1), (1, 2, 3), (3, 2, 1), (2, 3, 2)]:
        f = X ** (2 * p) + Y ** (2 * q) + Z ** (2 * r) - 1
        golden = reference_expected("sphere", "P-corrected", p, q, r)
        pm = sp.Matrix(2, 2, lambda i, j: to_sympy(golden.entry(i, j).rep))
        defect = pm * pm - sp.eye(2)
        for i in range(2):
            for j in range(2):
                assert divisible(defect[i, j], f), (p, q, r, i, j)


oracle_sweep = load_module("tools/oracle_sweep.py")


@pytest.mark.parametrize(
    "example, triple",
    [("ellipsoid", (2, 3, 4)), ("ellipsoid", (4, 2, 3)), ("ellipsoid", (4, 4, 4)),
     ("sphere", (1, 1, 1)), ("sphere", (2, 1, 2))],
)
def test_printed_curvature_block_matches_sympy_rebuild(example, triple):
    # tools/oracle_sweep.py rebuilds the example from its definition in sympy
    # and reduces by the Groebner basis {f}, whose remainders are unique
    p, q, r = triple
    result = run_main("verify", example, "--p", str(p), "--q", str(q), "--r", str(r), "--json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    if example == "sphere" and triple == (1, 1, 1):
        # each trace-*-image golden is the printed tr((I - Phi)*C) to the
        # letter, so the oracle's comparison below confirms the golden itself
        for block, tag in zip(report["curvature"], ("12", "13", "23"), strict=True):
            golden = reference_expected("sphere", f"trace-{tag}-image", 1, 1, 1)
            assert block["trace_kernel"] == str(golden)
    mismatches, compared = oracle_sweep.check_report(report)
    assert mismatches == []
    n = 3 if example == "ellipsoid" else 2
    assert compared["commutator entries"] == 3 * n * n
    assert compared["traces"] == 6
    assert compared["flat bits"] == 3
    assert compared["witness entries"] == (9 if example == "ellipsoid" else 0)


# One modulus of each coefficient shape: a unit leading coefficient other
# than 1, a leading coefficient that is no unit over a Gaussian-integer tail
# of -f/lc, a tail of -f/lc with one denominator and with several, a
# non-real leading coefficient that is no unit under a dividend with
# denominators, and a monic modulus under a dividend over the first 240
# primes as denominators.
EVAL_ORACLE_CASES = [
    ("(x+y+z)^12", "i*x^2+y^2+z^2-1", sp.QQ_I),
    ("(x+y+z)^12", "2*x^2+4*y^2+2*z^2-2", sp.QQ),
    ("(x+y+z)^12", "2*x^2+y^2+z^2-1", sp.QQ),
    ("(x+y+z)^12", "6*x^2+2*y^2+3*z^2-1", sp.QQ),
    ("(x/3+i*y+z/2)^12", "(1+2*i)*x^2+y^2+z^2-1", sp.QQ_I),
    (prime_denominator_dividend(), "x^2+y^2+z^2-1", sp.QQ_I),
]


@pytest.mark.parametrize("dividend, modulus, domain", EVAL_ORACLE_CASES,
                         ids=["unit-lead", "non-unit-lead", "rational-tail", "several-denominators",
                              "gaussian-non-unit-lead", "prime-denominators"])
def test_eval_remainder_matches_sympy_reduced(dividend, modulus, domain):
    # {f} is a Groebner basis, so the grevlex remainder is unique and the
    # printed normal form must equal sympy's as a value
    result = run_main("eval", dividend, "mod", modulus)
    assert result.returncode == 0
    parse_text = oracle_sweep._parse
    _, remainder = sp.reduced(sp.expand(parse_text(dividend)), [parse_text(modulus)], *SYMS,
                              order="grevlex", domain=domain)
    assert sp.expand(parse_text(result.stdout) - remainder) == 0

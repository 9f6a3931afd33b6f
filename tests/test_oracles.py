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
    MatrixA,
    QuotientRing,
    catalog,
    divide_remainder,
    parse,
    reference_expected,
)
from hyperconn.cli import run_verification
from helpers import (
    load_module,
    nonzero_polynomial,
    prime_denominator_dividend,
    random_gaussian,
    random_matrix,
    random_polynomial,
    record_calls,
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


oracle_sweep = load_module("tools/oracle_sweep.py")


def _sympy_value(golden):
    """A golden as sympy: a matrix, a vector as a column, or an expression."""
    if isinstance(golden, MatrixA):
        return sp.Matrix(golden.rows, golden.cols, lambda i, j: to_sympy(golden.entry(i, j).rep))
    if isinstance(golden, tuple):
        return sp.Matrix([to_sympy(v.rep) for v in golden])
    return to_sympy(golden.rep)


def _golden_relations(example, p, q, r):
    """Each reference_expected id of the example at (p, q, r), with the
    residual that its golden g makes zero modulo f, formed from
    oracle_sweep.rebuild alone; and the Groebner basis {f}."""
    phi, fields, basis = oracle_sweep.rebuild(example, p, q, r)
    n, derive = phi.rows, oracle_sweep.derive

    def d(k, m):
        return m.applyfunc(lambda e: derive(fields[k], e))

    dphi = [d(k, phi) for k in range(3)]
    c = {f"{i + 1}{j + 1}": dphi[i] * dphi[j] - dphi[j] * dphi[i] for i, j in oracle_sweep._PAIRS}
    if example == "ellipsoid":
        (f,) = basis.exprs
        grad = sp.Matrix([sp.diff(f, s) for s in SYMS])

        def connection(k, v):  # A_{d_k}(v) = d_k(v) + d_k(Phi)*v
            return d(k, v) + dphi[k] * v

        relations = {"M": lambda g: g - phi, "dFvec": lambda g: g - grad}
        for k in range(3):
            relations[f"d{k + 1}M"] = lambda g, k=k: g - dphi[k]
            relations[f"formone-scalar-{k + 1}"] = (
                lambda g, k=k: connection(k, grad) - g * grad)
        for i, j in oracle_sweep._PAIRS:
            # [d_i, d_j] is g times the remaining derivation
            bracket = sp.Matrix([derive(fields[i], b) - derive(fields[j], a)
                                 for a, b in zip(fields[i], fields[j])])
            relations[f"bracket-scalar-{i + 1}{j + 1}"] = (
                lambda g, bracket=bracket, k=3 - i - j: bracket - g * sp.Matrix(fields[k]))
        for a, b in ((0, 1), (1, 0)):
            relations[f"nested-{a + 1}{b + 1}-scalar"] = (
                lambda g, a=a, b=b: connection(a, connection(b, grad)) - g * grad)
        return relations, basis
    # the sphere: Phi = I - M and P = 2M - I
    m = sp.eye(n) - phi
    involution = sp.eye(n) - 2 * phi
    misprint = sp.zeros(n, n)
    misprint[1, 0] = Y**p - Y**q  # the printed (2,1) entry reads y^p for y^q
    relations = {
        "P-corrected": lambda g: g - involution,
        "P-printed": lambda g: g - involution - misprint,
    }
    if (p, q, r) != catalog.DISPLAY_TRIPLE:
        return relations, basis
    dm = [d(k, m) for k in range(3)]
    trace = {tag: (m * c[tag]).trace() for tag in c}
    # the printed R23 reads z^2 for y*z in entry (1,2), so it is neither C23 nor -C23
    r23_misprint = sp.zeros(n, n)
    r23_misprint[0, 1] = sp.I / 2 * (Y * Z - Z**2)
    relations.update({
        "d1M": lambda g: g - dm[0],
        "d2M": lambda g: g - dm[1],
        "d3M-corrected": lambda g: g - dm[2],
        "d3M-printed": lambda g: g + dm[2],
        "R12": lambda g: g - c["12"],
        "R13-corrected": lambda g: g - c["13"],
        "R13-printed": lambda g: g + c["13"],
        "R23-corrected": lambda g: g - c["23"],
        "R23-printed": lambda g: g + c["23"] - r23_misprint,
    })
    for tag, factor in (("12", 2), ("13", -2), ("23", -2)):
        relations[f"trace-{tag}-image"] = lambda g, tag=tag: g - trace[tag]
        relations[f"trace-{tag}-printed"] = lambda g, tag=tag, k=factor: g - k * trace[tag]
    return relations, basis


GOLDEN_TRIPLES = [
    ("ellipsoid", (2, 3, 4)), ("ellipsoid", (3, 2, 2)), ("ellipsoid", (4, 4, 3)),
    ("sphere", (1, 1, 1)), ("sphere", (2, 1, 1)), ("sphere", (1, 2, 3)), ("sphere", (3, 2, 1)),
    ("sphere", (2, 3, 2)),
]


@pytest.mark.parametrize("example, triple", GOLDEN_TRIPLES,
                         ids=[f"{e}-{p}{q}{r}" for e, (p, q, r) in GOLDEN_TRIPLES])
def test_every_golden_matches_the_sympy_rebuild(monkeypatch, example, triple):
    # {f} is a Groebner basis, so a residual is zero modulo f exactly when
    # its remainder is; printed ids are held to their documented misprints
    relations, basis = _golden_relations(example, *triple)
    for check_id, residual in relations.items():
        golden = _sympy_value(reference_expected(example, check_id, *triple))
        remainders = sp.Matrix([residual(golden)]).applyfunc(
            lambda e: basis.reduce(sp.expand(e))[1])
        assert remainders.is_zero_matrix, (check_id, remainders)
    # every golden a verify reads is among them, and at the display triple
    # so is every sphere display
    reads = record_calls(monkeypatch, catalog, "reference_expected")
    run_verification(example, *triple)
    assert {check_id for _, check_id, *_ in reads} <= set(relations)
    if example == "sphere" and triple == catalog.DISPLAY_TRIPLE:
        assert set(relations) == {"P-printed", "P-corrected", *catalog._sphere_displays()}


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

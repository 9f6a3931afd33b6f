"""Example families: construction invariants and transcription goldens."""

from __future__ import annotations

from itertools import product
from random import Random

import pytest

from hyperconn import (
    MatrixA,
    QuotientRing,
    bracket,
    build_ellipsoid_cotangent,
    build_sphere_line_bundle,
    commutator,
    connection_apply,
    curvature_matrix,
    koszul_derivations,
    make_presentation,
    parse,
    reference_expected,
    trace_over_image,
)
from helpers import record_calls

TRIPLES = [(2, 2, 2), (2, 3, 4), (3, 2, 4), (4, 3, 2), (3, 3, 3)]


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_ellipsoid_cotangent(1, 2, 2)
    with pytest.raises(ValueError):
        build_ellipsoid_cotangent(2, 2, 0)
    with pytest.raises(ValueError):
        build_sphere_line_bundle(0, 1, 1)
    build_sphere_line_bundle(1, 1, 1)
    build_ellipsoid_cotangent(2, 2, 2)


def test_ellipsoid_construction_invariants():
    for p, q, r in TRIPLES:
        ex = build_ellipsoid_cotangent(p, q, r)
        phi = ex.presentation.phi
        assert (phi * phi - phi).is_zero
        assert all(v.is_zero for v in phi.mul_vector(ex.dFvec))
        for d in ex.derivations:
            assert d.modulus_image().is_zero
        assert ex.presentation.kernel_generator == ex.dFvec


def test_ellipsoid_m_matches_template():
    for p, q, r in TRIPLES:
        ex = build_ellipsoid_cotangent(p, q, r)
        assert ex.presentation.phi == reference_expected("ellipsoid", "M", p, q, r)
        assert ex.dFvec == reference_expected("ellipsoid", "dFvec", p, q, r)


def _images(ring, texts):
    return tuple(ring.element(parse(t)) for t in texts)


def test_koszul_derivations_match_explicit_formulas():
    # on x^p + y^q + z^r - 1: d1 = (f_y, -f_x, 0), d2 = (f_z, 0, -f_x), d3 = (0, f_z, -f_y)
    for p, q, r in product(range(2, 6), repeat=3):
        ring = QuotientRing(parse(f"x^{p}+y^{q}+z^{r}-1"))
        fx, fy, fz = f"{p}*x^{p - 1}", f"{q}*y^{q - 1}", f"{r}*z^{r - 1}"
        expected = ((fy, f"-{fx}", "0"), (fz, "0", f"-{fx}"), ("0", fz, f"-{fy}"))
        fields = koszul_derivations(ring)
        assert [d.images for d in fields] == [_images(ring, e) for e in expected]
        assert build_ellipsoid_cotangent(p, q, r).derivations == fields


def test_sphere_derivations_are_scaled_koszul_fields():
    # on x^(2p) + y^(2q) + z^(2r) - 1 the fields are (K12/2, K13/2, -K23/2)
    for p, q, r in product(range(1, 4), repeat=3):
        ex = build_sphere_line_bundle(p, q, r)
        x, y, z = f"x^{2 * p - 1}", f"y^{2 * q - 1}", f"z^{2 * r - 1}"
        expected = (
            (f"{q}*{y}", f"-{p}*{x}", "0"),
            (f"{r}*{z}", "0", f"-{p}*{x}"),
            ("0", f"-{r}*{z}", f"{q}*{y}"),
        )
        assert [d.images for d in ex.derivations] == [_images(ex.ring, e) for e in expected]
        k12, k13, k23 = koszul_derivations(ex.ring)
        d1, d2, d3 = ex.derivations
        assert (d1 * 2, d2 * 2, d3 * -2) == (k12, k13, k23)


def test_ellipsoid_m_222_entries():
    ex = build_ellipsoid_cotangent(2, 2, 2)
    phi = ex.presentation.phi
    assert str(phi.entry(0, 0)) == "y^2+z^2"
    assert str(phi.entry(0, 1)) == "-x*y"
    assert str(phi.entry(1, 0)) == "-x*y"
    assert str(phi.entry(2, 2)) == "-z^2+1"


def test_ellipsoid_differential_goldens():
    for p, q, r in TRIPLES:
        ex = build_ellipsoid_cotangent(p, q, r)
        phi = ex.presentation.phi
        for i, d in enumerate(ex.derivations, 1):
            expected = reference_expected("ellipsoid", f"d{i}M", p, q, r)
            assert d.apply_to_matrix(phi) == expected


def test_ellipsoid_formone_scalars():
    for p, q, r in TRIPLES:
        ex = build_ellipsoid_cotangent(p, q, r)
        for i, d in enumerate(ex.derivations, 1):
            scalar = reference_expected("ellipsoid", f"formone-scalar-{i}", p, q, r)
            applied = connection_apply(ex.presentation, d, ex.dFvec)
            for got, base in zip(applied, ex.dFvec):
                assert (got - scalar * base).is_zero


def test_ellipsoid_bracket_scalars():
    for p, q, r in TRIPLES:
        ex = build_ellipsoid_cotangent(p, q, r)
        d1, d2, d3 = ex.derivations
        b12 = reference_expected("ellipsoid", "bracket-scalar-12", p, q, r)
        b13 = reference_expected("ellipsoid", "bracket-scalar-13", p, q, r)
        b23 = reference_expected("ellipsoid", "bracket-scalar-23", p, q, r)
        assert bracket(d1, d2) == d3 * b12
        assert bracket(d1, d3) == d2 * b13
        assert bracket(d2, d3) == d1 * b23


def test_ellipsoid_nested_operator_scalars():
    for p, q, r in TRIPLES:
        ex = build_ellipsoid_cotangent(p, q, r)
        pres = ex.presentation
        d1, d2, _ = ex.derivations
        s12 = reference_expected("ellipsoid", "nested-12-scalar", p, q, r)
        s21 = reference_expected("ellipsoid", "nested-21-scalar", p, q, r)
        inner = connection_apply(pres, d2, ex.dFvec)
        outer = connection_apply(pres, d1, inner)
        for got, base in zip(outer, ex.dFvec):
            assert (got - s12 * base).is_zero
        inner = connection_apply(pres, d1, ex.dFvec)
        outer = connection_apply(pres, d2, inner)
        for got, base in zip(outer, ex.dFvec):
            assert (got - s21 * base).is_zero


def test_sphere_construction_invariants():
    for p, q, r in [(1, 1, 1), (2, 1, 1), (1, 2, 3), (2, 2, 2)]:
        ex = build_sphere_line_bundle(p, q, r)
        ident = MatrixA.identity(ex.ring, 2)
        assert (ex.involution * ex.involution - ident).is_zero
        m = ex.idempotent
        assert (m * m - m).is_zero
        assert ex.presentation.phi == ident - m
        for d in ex.derivations:
            assert d.modulus_image().is_zero


def test_sphere_build_reduces_no_constant_multiple(monkeypatch):
    # (P + I)/2 and the fields k12/2, k13/2, -k23/2 are constant multiples of
    # normal forms, so only the products and the Koszul fields reduce (37 nf
    # calls when the 4 entries of (P + I)/2 and the 9 field images reduced)
    calls = record_calls(monkeypatch, QuotientRing, "nf")
    build_sphere_line_bundle(1, 1, 1)
    assert len(calls) == 24


def test_sphere_involution_printed_entry_differs():
    # the corrected (2,1) entry uses the q-th power; the printed display
    # uses the p-th and only squares to the identity when p == q
    printed = reference_expected("sphere", "P-printed", 2, 1, 1)
    corrected = reference_expected("sphere", "P-corrected", 2, 1, 1)
    assert printed != corrected
    ident = MatrixA.identity(printed.ring, 2)
    assert not (printed * printed - ident).is_zero
    assert (corrected * corrected - ident).is_zero
    assert reference_expected("sphere", "P-printed", 1, 1, 1) == reference_expected(
        "sphere", "P-corrected", 1, 1, 1
    )


def test_sphere_involution_matches_corrected_display():
    for p, q, r in product(range(1, 4), repeat=3):
        expected = reference_expected("sphere", "P-corrected", p, q, r)
        assert build_sphere_line_bundle(p, q, r).involution == expected, (p, q, r)


def test_sphere_differential_goldens():
    ex = build_sphere_line_bundle(1, 1, 1)
    m = ex.idempotent
    d1, d2, d3 = ex.derivations
    assert d1.apply_to_matrix(m) == reference_expected("sphere", "d1M", 1, 1, 1)
    assert d2.apply_to_matrix(m) == reference_expected("sphere", "d2M", 1, 1, 1)
    computed = d3.apply_to_matrix(m)
    printed = reference_expected("sphere", "d3M-printed", 1, 1, 1)
    corrected = reference_expected("sphere", "d3M-corrected", 1, 1, 1)
    assert computed == corrected
    assert computed == -printed
    assert computed != printed


def test_sphere_curvature_goldens():
    ex = build_sphere_line_bundle(1, 1, 1)
    m = ex.idempotent
    d1, d2, d3 = ex.derivations
    d1m = d1.apply_to_matrix(m)
    d2m = d2.apply_to_matrix(m)
    d3m = d3.apply_to_matrix(m)
    assert commutator(d1m, d2m) == reference_expected("sphere", "R12", 1, 1, 1)
    # the pair-13 display carries the d3M sign through: computed = -printed
    c13 = commutator(d1m, d3m)
    assert c13 == reference_expected("sphere", "R13-corrected", 1, 1, 1)
    assert c13 == -reference_expected("sphere", "R13-printed", 1, 1, 1)
    # the pair-23 display additionally misprints one entry, so the printed
    # matrix matches the computation in neither sign
    c23 = commutator(d2m, d3m)
    assert c23 == reference_expected("sphere", "R23-corrected", 1, 1, 1)
    printed23 = reference_expected("sphere", "R23-printed", 1, 1, 1)
    assert c23 != printed23
    assert c23 != -printed23


def test_sphere_curvature_same_for_both_idempotents():
    # d(I - M) = -d(M), so the commutator is convention independent
    ex = build_sphere_line_bundle(1, 1, 1)
    d1, d2, _ = ex.derivations
    via_line_bundle = curvature_matrix(ex.presentation, d1, d2)
    m = ex.idempotent
    assert via_line_bundle == commutator(d1.apply_to_matrix(m), d2.apply_to_matrix(m))


def test_sphere_trace_goldens():
    ex = build_sphere_line_bundle(1, 1, 1)
    m = ex.idempotent
    pres_m = make_presentation(ex.ring, m)
    d1, d2, d3 = ex.derivations
    pairs = {
        "12": (d1, d2),
        "13": (d1, d3),
        "23": (d2, d3),
    }
    for tag, (da, db) in pairs.items():
        c = commutator(da.apply_to_matrix(m), db.apply_to_matrix(m))
        computed = trace_over_image(pres_m, c)
        golden = reference_expected("sphere", f"trace-{tag}-image", 1, 1, 1)
        printed = reference_expected("sphere", f"trace-{tag}-printed", 1, 1, 1)
        assert computed == golden
        assert not computed.is_zero
        factor = 2 if tag == "12" else -2
        assert printed == computed * factor


def test_reference_expected_errors():
    with pytest.raises(KeyError):
        reference_expected("ellipsoid", "no-such-check", 2, 2, 2)
    with pytest.raises(KeyError):
        reference_expected("sphere", "no-such-check", 1, 1, 1)
    with pytest.raises(KeyError):
        reference_expected("torus", "M", 2, 2, 2)
    with pytest.raises(ValueError):
        reference_expected("sphere", "R12", 2, 1, 1)
    for tag in ("12", "13", "23"):
        for kind in ("printed", "image"):
            with pytest.raises(ValueError):
                reference_expected("sphere", f"trace-{tag}-{kind}", 2, 1, 1)
    # an unknown id is reported before the parameters are
    with pytest.raises(KeyError):
        reference_expected("sphere", "no-such-check", 2, 1, 1)
    with pytest.raises(ValueError):
        reference_expected("ellipsoid", "M", 1, 2, 2)


def test_reference_rings_interoperate():
    ex = build_ellipsoid_cotangent(2, 3, 4)
    expected = reference_expected("ellipsoid", "M", 2, 3, 4)
    assert expected.ring is ex.ring
    assert (ex.presentation.phi - expected).is_zero


def test_random_tangent_combinations_stay_tangent():
    rng = Random(604000)
    ex = build_ellipsoid_cotangent(2, 3, 2)
    from helpers import random_tangent

    for _ in range(20):
        delta = random_tangent(rng, ex.ring, ex.derivations)
        assert delta.modulus_image().is_zero

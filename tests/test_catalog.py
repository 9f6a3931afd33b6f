"""Example families: construction invariants and transcription goldens."""

from __future__ import annotations

from itertools import product
from random import Random

import pytest

from hyperconn import (
    GaussianRational,
    MatrixA,
    QuotientRing,
    build_ellipsoid_cotangent,
    build_sphere_line_bundle,
    catalog,
    commutator,
    curvature_matrix,
    koszul_derivations,
    parse,
    reference_expected,
)
from helpers import assert_refused, record_calls

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


def test_ellipsoid_m_matches_template():
    for p, q, r in TRIPLES:
        ex = build_ellipsoid_cotangent(p, q, r)
        assert ex.presentation.phi == reference_expected("ellipsoid", "M", p, q, r)
        assert ex.dFvec == reference_expected("ellipsoid", "dFvec", p, q, r)
        assert ex.presentation.kernel_generator == ex.dFvec


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


def test_sphere_builder_refuses_an_involution_that_does_not_square_to_one(monkeypatch):
    # with 1 for i, P^2 = (x^2 + y^2 - z^2)*I, which is I - 2*z^2*I on the sphere
    monkeypatch.setattr(catalog, "_I", GaussianRational(1))
    assert_refused(lambda: build_sphere_line_bundle(1, 1, 1), ValueError,
                   "involution square defect: [[-2*z^2, 0], [0, -2*z^2]]")


def test_sphere_curvature_same_for_both_idempotents():
    # d(I - M) = -d(M), so the commutator is convention independent
    ex = build_sphere_line_bundle(1, 1, 1)
    d1, d2, _ = ex.derivations
    via_line_bundle = curvature_matrix(ex.presentation, d1, d2)
    m = ex.idempotent
    assert via_line_bundle == commutator(d1.apply_to_matrix(m), d2.apply_to_matrix(m))


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

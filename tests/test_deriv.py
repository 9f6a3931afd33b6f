"""Derivations: tangency, Leibniz, brackets, matrix application."""

from __future__ import annotations

from random import Random

import pytest

from hyperconn import (
    Derivation,
    Polynomial,
    QuotientRing,
    TangencyError,
    bracket,
    koszul_derivations,
    parse,
)
from helpers import (
    NAMES,
    pairwise_mul,
    random_element,
    random_matrix,
    random_tangent,
    record_calls,
    rotations,
    unit_sphere,
)

SPHERE = unit_sphere()


def test_tangency_enforced():
    d1, *_ = rotations()
    with pytest.raises(TangencyError):
        Derivation(SPHERE, ("1", "0", "0"))
    with pytest.raises(TangencyError):
        Derivation(SPHERE, ("y", "x", "0"))
    assert d1.modulus_image().is_zero


def test_wrong_image_count_rejected():
    with pytest.raises(ValueError):
        Derivation(SPHERE, ("y", "-x"))


def test_apply_known_values():
    d1, *_ = rotations()
    assert d1.apply(SPHERE.element("x")) == SPHERE.element("y")
    assert d1.apply(SPHERE.element("y")) == SPHERE.element("-x")
    assert d1.apply(SPHERE.element("z")).is_zero
    assert d1.apply(SPHERE.element("x*y")) == SPHERE.element("y^2-x^2")
    assert d1.apply(SPHERE.one()).is_zero


def test_derivation_algebra():
    gens = rotations()
    rng = Random(490033)
    for _ in range(30):
        delta = random_tangent(rng, SPHERE, gens)
        eta = random_tangent(rng, SPHERE, gens)
        scalar = random_element(rng, SPHERE, max_degree=1, max_terms=2)
        a = random_element(rng, SPHERE)
        assert (delta + eta).apply(a) == delta.apply(a) + eta.apply(a)
        assert (delta - eta).apply(a) == delta.apply(a) - eta.apply(a)
        assert (delta * scalar).apply(a) == scalar * delta.apply(a)
        assert (-delta).apply(a) == -delta.apply(a)


def test_bracket_is_a_tangent_derivation():
    gens = rotations()
    rng = Random(995511)
    for _ in range(25):
        delta = random_tangent(rng, SPHERE, gens)
        eta = random_tangent(rng, SPHERE, gens)
        br = bracket(delta, eta)
        assert br.modulus_image().is_zero
        a = random_element(rng, SPHERE)
        assert br.apply(a) == delta.apply(eta.apply(a)) - eta.apply(delta.apply(a))


def test_rotation_bracket_closes():
    d1, d2, d3 = rotations()
    # [y d/dx - x d/dy, z d/dx - x d/dz] sends y to z and z to -y
    assert bracket(d1, d2) == d3


def test_apply_to_matrix_entrywise():
    gens = rotations()
    rng = Random(160298)
    for _ in range(20):
        delta = random_tangent(rng, SPHERE, gens, max_degree=1, max_terms=1)
        m = random_matrix(rng, SPHERE, 2)
        result = delta.apply_to_matrix(m)
        for i in range(2):
            for j in range(2):
                assert result.entry(i, j) == delta.apply(m.entry(i, j))


def test_str_rendering():
    d1, *_ = rotations()
    assert str(d1) == "y*d/dx + (-x)*d/dy"
    zero = d1 - d1
    assert str(zero) == "0"


def test_hash_is_computed_once_and_by_value(monkeypatch):
    d1, *_ = rotations()
    calls = record_calls(monkeypatch, Polynomial, "__hash__")
    delta = Derivation(SPHERE, ("y", "-x", "0"))
    first = hash(delta)
    walked = len(calls)
    assert walked > 0
    assert hash(delta) == first and len(calls) == walked
    # equal derivations built apart hash alike, and equality is unchanged
    assert hash(d1) == first and d1 == delta
    assert {delta: 1}[d1] == 1


def test_modulus_image_is_computed_once_per_derivation(monkeypatch):
    calls = record_calls(monkeypatch, Derivation, "_apply_rep")
    # the check at construction computes delta(f); later calls return it
    delta = Derivation(SPHERE, ("y", "-x", "0"))
    assert calls == [(delta, SPHERE.modulus)]
    first = delta.modulus_image()
    assert first.is_zero and delta.modulus_image() is first
    assert len(calls) == 1
    # a derivation built unchecked computes delta(f) on its first call
    calls.clear()
    scaled = Derivation(SPHERE, ("2*y", "-2*x", "0"), _checked=True)
    assert calls == []
    image = scaled.modulus_image()
    assert image.is_zero and scaled.modulus_image() is image
    assert calls == [(scaled, SPHERE.modulus)]
    # an unchecked non-tangent derivation reports its delta(f) exactly
    radial = Derivation(SPHERE, ("x", "y", "z"), _checked=True)
    assert radial.modulus_image() == SPHERE.element(parse("2"))
    # a multiple keeps a known zero delta(f), and computes a nonzero one anew
    calls.clear()
    half = delta * SPHERE.element(parse("1/2"))
    assert half.modulus_image() is first and calls == []
    assert (radial * SPHERE.element(parse("x"))).modulus_image() == SPHERE.element(parse("2*x"))
    assert [rep for _, rep in calls] == [SPHERE.modulus]


def test_a_zero_image_is_paired_with_no_partial_derivative(monkeypatch):
    # each Koszul field (i, j) has a zero image at the third variable, so
    # applying it forms the partials in x_i and x_j only, and the sum over
    # all three partials by the chain rule is the same element
    ring = QuotientRing(parse("x^2+y^3+z^4-1"))
    fields = koszul_derivations(ring)
    a = ring.element(parse("x*y*z+i/2*x^2*z-y^2/3"))
    chain_rule = [
        ring.nf(sum((pairwise_mul(a.rep.partial_derivative(k), image.rep)
                     for k, image in enumerate(delta.images)), Polynomial.zero(NAMES)))
        for delta in fields
    ]
    calls = record_calls(monkeypatch, Polynomial, "partial_derivative")
    for delta, pair, want in zip(fields, [(0, 1), (0, 2), (1, 2)], chain_rule):
        calls.clear()
        got = delta.apply(a)
        assert [index for _, index in calls] == list(pair)
        assert got == want and str(got) == str(want)


@pytest.mark.parametrize(
    "images, defect", [(("1", "0", "0"), "2*x"), (("y", "x", "0"), "4*x*y")]
)
def test_tangency_error_message(images, defect):
    message = f"images do not define a derivation of the quotient: delta(f) = {defect} != 0"
    with pytest.raises(TangencyError) as info:
        Derivation(SPHERE, images)
    assert str(info.value) == message

"""Presentations, connection operators, curvature, modified curvature."""

from __future__ import annotations

import copy
import pickle
from itertools import combinations, product
from random import Random
from types import SimpleNamespace

import pytest

from hyperconn import (
    Derivation,
    MatrixA,
    PresentationError,
    QuotientRing,
    bracket,
    build_ellipsoid_cotangent,
    build_sphere_line_bundle,
    commutator,
    conn,
    connection_apply,
    connection_matrix,
    curvature_matrix,
    curvature_report,
    deviation_report,
    koszul_derivations,
    make_presentation,
    modified_curvature,
    operator_commutator_matrix,
    parse,
)
from helpers import (
    random_element,
    random_matrix,
    random_tangent,
    record_calls,
    rotations,
    unit_sphere,
)


def column_operator_commutator(p, delta, potential):
    """Reference for operator_commutator_matrix, one basis column at a time:
    column j of [A_delta, X] is A_delta(X e_j) - X A_delta(e_j)."""
    zero, one = p.ring.zero(), p.ring.one()
    columns = []
    for j in range(p.n):
        basis = tuple(one if i == j else zero for i in range(p.n))
        left = connection_apply(p, delta, potential.column(j))
        right = potential.mul_vector(connection_apply(p, delta, basis))
        columns.append([a - b for a, b in zip(left, right)])
    return MatrixA.from_rows(p.ring, zip(*columns))


def basis_route_one(p, delta, eta, lie, phi_delta, phi_eta, phi_bracket):
    """Reference for modified_curvature's direct matrix, one basis vector at a
    time: column j is [A'_delta, A'_eta](e_j) - A'_lie(e_j), each shifted
    operator A'_d(v) = A_d(v) + phi_d*v applied to the vector itself."""
    zero, one = p.ring.zero(), p.ring.one()

    def shifted(d, potential, vec):
        return tuple(a + b for a, b in zip(connection_apply(p, d, vec), potential.mul_vector(vec)))

    columns = []
    for j in range(p.n):
        basis = tuple(one if i == j else zero for i in range(p.n))
        first = shifted(delta, phi_delta, shifted(eta, phi_eta, basis))
        second = shifted(eta, phi_eta, shifted(delta, phi_delta, basis))
        third = shifted(lie, phi_bracket, basis)
        columns.append([a - b - c for a, b, c in zip(first, second, third)])
    return MatrixA.from_rows(p.ring, zip(*columns))


def _diag_presentation():
    # the free rank-one summand of A^2
    sphere = unit_sphere()
    return make_presentation(sphere, MatrixA.from_rows(sphere, [["1", "0"], ["0", "0"]]))


def test_make_presentation_validates_idempotency():
    sphere = unit_sphere()
    with pytest.raises(PresentationError):
        make_presentation(sphere, MatrixA.from_rows(sphere, [["x", "0"], ["0", "0"]]))
    with pytest.raises(PresentationError):
        make_presentation(sphere, MatrixA.zero(sphere, 2, 3))
    p = _diag_presentation()
    assert p.psi == MatrixA.from_rows(sphere, [["0", "0"], ["0", "1"]])


def test_kernel_generator_validation():
    sphere = unit_sphere()
    phi = MatrixA.from_rows(sphere, [["1", "0"], ["0", "0"]])
    p = make_presentation(sphere, phi, ("0", "1"))
    assert p.kernel_generator == (sphere.zero(), sphere.one())
    with pytest.raises(PresentationError):
        make_presentation(sphere, phi, ("1", "0"))  # not annihilated
    with pytest.raises(PresentationError):
        make_presentation(sphere, phi, ("0", "0"))  # zero vector
    with pytest.raises(PresentationError):
        make_presentation(sphere, phi, ("0", "1", "0"))  # wrong length


def test_connection_apply_leibniz():
    ex = build_ellipsoid_cotangent(2, 2, 2)
    pres = ex.presentation
    rng = Random(515253)
    for _ in range(20):
        delta = random_tangent(rng, ex.ring, ex.derivations, max_degree=1, max_terms=1)
        a = random_element(rng, ex.ring, max_degree=2, max_terms=2)
        v = tuple(random_element(rng, ex.ring, max_degree=1, max_terms=2) for _ in range(3))
        scaled = tuple(a * c for c in v)
        left = connection_apply(pres, delta, scaled)
        base = connection_apply(pres, delta, v)
        right = tuple(a * b + delta.apply(a) * c for b, c in zip(base, v))
        assert left == right


def test_curvature_matrix_is_commutator_of_differentials():
    ex = build_ellipsoid_cotangent(2, 3, 2)
    d1, d2, _ = ex.derivations
    phi = ex.presentation.phi
    c = curvature_matrix(ex.presentation, d1, d2)
    assert c == commutator(d1.apply_to_matrix(phi), d2.apply_to_matrix(phi))


def test_curvature_of_free_summand_is_zero():
    p = _diag_presentation()
    d1, d2, _ = rotations()
    c = curvature_matrix(p, d1, d2)
    assert c.is_zero
    assert curvature_report(p, d1, d2, "d1", "d2").induced.is_zero


@pytest.mark.parametrize(
    "build, values",
    [(build_ellipsoid_cotangent, (2, 3, 4)), (build_sphere_line_bundle, (1, 2))],
    ids=["ellipsoid", "sphere"],
)
def test_idempotent_commutes_with_its_curvature(build, values):
    # curvature_report takes the induced endomorphism Phi*C*Phi as Phi*C
    for triple in product(values, repeat=3):
        ex = build(*triple)
        phi = ex.presentation.phi
        for delta, eta in combinations(ex.derivations, 2):
            c = curvature_matrix(ex.presentation, delta, eta)
            assert phi * c == c * phi == phi * c * phi, triple


def test_curvature_report_fields():
    ex = build_ellipsoid_cotangent(2, 2, 3)
    report = curvature_report(ex.presentation, ex.derivations[0], ex.derivations[1], "d1", "d2")
    assert report.pair == ("d1", "d2")
    assert report.trace_image.is_zero
    assert report.trace_kernel.is_zero
    assert not report.induced.is_zero
    data = report.to_json()
    assert data["pair"] == ["d1", "d2"]
    assert data["trace_image"] == "0"
    assert data["flat"] is False
    assert isinstance(data["commutator"][0][0], str)


@pytest.mark.parametrize(
    "build, params",
    [(build_ellipsoid_cotangent, (2, 3, 4)), (build_sphere_line_bundle, (1, 1, 1))],
    ids=["ellipsoid", "sphere"],
)
def test_curvature_report_flatness_is_phi_times_commutator(build, params):
    ex = build(*params)
    # flat is read off the entries of Phi*C up to the first nonzero one, and
    # induced forms Phi*C in full; both agree with the product formed directly
    phi = ex.presentation.phi
    for delta, eta in combinations(ex.derivations, 2):
        report = curvature_report(ex.presentation, delta, eta, "a", "b")
        assert report.flat == (phi * report.commutator).is_zero
        assert report.induced == phi * report.commutator
        assert report.to_json()["flat"] is report.flat


def test_the_free_complement_is_flat_where_the_module_is_not():
    # Psi = I - Phi = grad(f)*E^T presents the free line spanned by grad f.
    # Each commutator C of that presentation kills grad f, so Psi*C = C*Psi = 0
    # and the pair is flat although C is not; the module itself is not flat
    ex = build_ellipsoid_cotangent(2, 3, 4)
    complement = make_presentation(ex.ring, ex.presentation.psi)
    for delta, eta in combinations(ex.derivations, 2):
        free = curvature_report(complement, delta, eta, "a", "b")
        assert free.flat and not free.commutator.is_zero
        assert free.trace_image.is_zero and free.trace_kernel.is_zero
        assert not curvature_report(ex.presentation, delta, eta, "a", "b").flat


def test_curvature_report_scans_phi_times_c_up_to_its_first_nonzero_entry(monkeypatch):
    ex = build_ellipsoid_cotangent(2, 3, 4)
    pres, (d1, d2, _) = ex.presentation, ex.derivations
    read = []
    original = MatrixA._product_entries

    def counting_entries(self, other):
        for entry in original(self, other):
            read.append(entry)
            yield entry

    monkeypatch.setattr(MatrixA, "_product_entries", counting_entries)
    # delta = eta: C = 0, so the pair is flat and every entry of Phi*C is read
    report = curvature_report(pres, d1, d1, "d1", "d1")
    assert report.commutator.is_zero and report.flat
    assert len(read) == pres.n**2 and not any(read)
    read.clear()
    # a non-flat pair stops at the first nonzero entry, here before the last
    report = curvature_report(pres, d1, d2, "d1", "d2")
    scanned = len(read)
    first = next(k for k, e in enumerate(report.induced.entries) if e)
    assert not report.flat and scanned == first + 1 < pres.n**2


def test_operator_commutator_is_a_linear_in_potential():
    ex = build_ellipsoid_cotangent(2, 2, 2)
    pres = ex.presentation
    rng = Random(700107)
    delta = ex.derivations[0]
    for _ in range(10):
        a = random_matrix(rng, ex.ring, 3, max_degree=1, max_terms=1)
        b = random_matrix(rng, ex.ring, 3, max_degree=1, max_terms=1)
        left = operator_commutator_matrix(pres, delta, a + b)
        right = operator_commutator_matrix(pres, delta, a) + operator_commutator_matrix(pres, delta, b)
        assert left == right


@pytest.mark.parametrize(
    "build, params",
    [
        (build_ellipsoid_cotangent, (2, 2, 2)),
        (build_ellipsoid_cotangent, (2, 3, 4)),
        (build_sphere_line_bundle, (1, 1, 1)),
        (build_sphere_line_bundle, (1, 2, 1)),
    ],
    ids=["ellipsoid-222", "ellipsoid-234", "sphere-111", "sphere-121"],
)
def test_operator_commutator_matches_column_reference(build, params):
    ex = build(*params)
    pres = ex.presentation
    rng = Random(990011)
    for delta in ex.derivations:
        for _ in range(3):
            x = random_matrix(rng, ex.ring, pres.n, max_degree=2, max_terms=2)
            closed = operator_commutator_matrix(pres, delta, x)
            reference = column_operator_commutator(pres, delta, x)
            assert closed == reference
            assert [str(e) for e in closed.entries] == [str(e) for e in reference.entries]


def test_operator_commutator_on_identity_vanishes():
    ex = build_ellipsoid_cotangent(2, 3, 2)
    pres = ex.presentation
    ident = MatrixA.identity(ex.ring, 3)
    for delta in ex.derivations:
        assert operator_commutator_matrix(pres, delta, ident).is_zero


def test_modified_curvature_rejects_bad_potential():
    ex = build_ellipsoid_cotangent(2, 2, 2)
    pres = ex.presentation
    d1, d2, _ = ex.derivations
    br = bracket(d1, d2)
    ident = MatrixA.identity(ex.ring, 3)
    off = MatrixA.from_rows(ex.ring, [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]])
    with pytest.raises(PresentationError):
        modified_curvature(pres, d1, d2, br, off, ident, ident)


def test_modified_curvature_rejects_one_sided_potentials():
    # Psi*Y*Phi maps the module into the complement and Phi*Y*Psi maps the
    # complement into the module; neither commutes with Phi, Phi*Y*Phi does
    ex = build_ellipsoid_cotangent(2, 2, 2)
    pres = ex.presentation
    d1, d2, _ = ex.derivations
    br = bracket(d1, d2)
    zero = MatrixA.zero(ex.ring, 3)
    y = random_matrix(Random(61203), ex.ring, 3, max_degree=1)
    phi, psi = pres.phi, pres.psi
    for potential in (psi * y * phi, phi * y * psi):
        assert not potential.is_zero
        for slot in range(3):
            potentials = [zero, zero, zero]
            potentials[slot] = potential
            with pytest.raises(PresentationError):
                modified_curvature(pres, d1, d2, br, *potentials)
    modified_curvature(pres, d1, d2, br, phi * y * phi, zero, zero)


def test_modified_curvature_rejects_wrong_bracket():
    ex = build_ellipsoid_cotangent(2, 2, 2)
    pres = ex.presentation
    d1, d2, d3 = ex.derivations
    zero = MatrixA.zero(ex.ring, 3)
    with pytest.raises(ValueError):
        modified_curvature(pres, d1, d2, d3, zero, zero, zero)


@pytest.fixture(scope="module")
def misfits():
    """The ellipsoid (2, 3, 4) presentation and two of its derivations, with
    inputs that do not fit it: a 2x2 matrix, a matrix and a rotation field
    over the unit sphere (another ring in the same variables), and a
    rotation field of a ring in two variables."""
    ex = build_ellipsoid_cotangent(2, 3, 4)
    d1, d2, _ = ex.derivations
    sphere, plane = unit_sphere(), QuotientRing(parse("x^2+y^2-1", names=("x", "y")))
    return SimpleNamespace(
        pres=ex.presentation, d1=d1, d2=d2, lie=bracket(d1, d2),
        zero=MatrixA.zero(ex.ring, 3), small=MatrixA.zero(ex.ring, 2),
        foreign=MatrixA.from_rows(sphere, [["x", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]),
        rotation=rotations()[0], planar=Derivation(plane, ("y", "-x")),
    )


# Each function here leaves these refusals to the matrix, ring-element or
# derivation operation it calls, whose ValueError carries the message.
@pytest.mark.parametrize("misuse, message", [
    pytest.param(lambda s: operator_commutator_matrix(s.pres, s.d1, s.foreign),
                 "different ring", id="potential-over-another-ring"),
    pytest.param(lambda s: operator_commutator_matrix(s.pres, s.d1, s.small),
                 "shape mismatch", id="potential-of-another-size"),
    pytest.param(lambda s: modified_curvature(s.pres, s.d1, s.d2, s.lie, s.foreign, s.zero, s.zero),
                 "different ring", id="shift-over-another-ring"),
    pytest.param(lambda s: modified_curvature(s.pres, s.d1, s.d2, s.lie, s.zero, s.small, s.zero),
                 "shape mismatch", id="shift-of-another-size"),
    pytest.param(lambda s: connection_apply(s.pres, s.d1, ("1", "0")),
                 "vector length 2", id="short-vector"),
    pytest.param(lambda s: connection_apply(s.pres, s.d1, ("1", "0", "0", "0")),
                 "vector length 4", id="long-vector"),
    pytest.param(lambda s: make_presentation(s.pres.ring, MatrixA.identity(unit_sphere(), 3)),
                 "different ring", id="idempotent-over-another-ring"),
    pytest.param(lambda s: s.d1 + s.rotation, "different ring", id="sum-over-another-ring"),
    pytest.param(lambda s: bracket(s.d1, s.rotation), "different ring",
                 id="bracket-over-another-ring"),
    pytest.param(lambda s: bracket(s.d1, s.planar), "different ring",
                 id="bracket-with-two-variables"),
    pytest.param(lambda s: bracket(s.planar, s.d1), "different ring",
                 id="bracket-from-two-variables"),
])
def test_misuse_is_refused_by_the_callee(misfits, misuse, message):
    with pytest.raises(ValueError, match=message):
        misuse(misfits)


def test_modified_curvature_zero_potential_matches_plain():
    ex = build_ellipsoid_cotangent(2, 2, 2)
    pres = ex.presentation
    d1, d2, _ = ex.derivations
    br = bracket(d1, d2)
    zero = MatrixA.zero(ex.ring, 3)
    modified = modified_curvature(pres, d1, d2, br, zero, zero, zero)
    plain = curvature_matrix(pres, d1, d2)
    phi = pres.phi
    assert phi * modified * phi == phi * plain * phi
    # with zero potential the two operators agree on the whole of A^n
    assert modified == plain


@pytest.mark.parametrize(
    "build, params",
    [
        (build_ellipsoid_cotangent, (2, 2, 2)),
        (build_ellipsoid_cotangent, (2, 3, 4)),
        (build_sphere_line_bundle, (1, 1, 1)),
        (build_sphere_line_bundle, (1, 1, 2)),
    ],
    ids=["ellipsoid-222", "ellipsoid-234", "sphere-111", "sphere-112"],
)
def test_modified_curvature_matches_the_basis_vector_reference(build, params):
    # the whole direct matrix, not only Phi*direct*Phi, which the gap check compares
    ex = build(*params)
    pres = ex.presentation
    phi = pres.phi
    rng = Random(290029)
    for delta, eta in combinations(ex.derivations, 2):
        lie = bracket(delta, eta)
        potentials = [phi * random_matrix(rng, ex.ring, pres.n) * phi for _ in range(3)]
        direct = modified_curvature(pres, delta, eta, lie, *potentials)
        reference = basis_route_one(pres, delta, eta, lie, *potentials)
        assert direct == reference  # == on every entry, shape and ring


@pytest.mark.parametrize(
    "build, params, applied, multiplied",
    [(build_ellipsoid_cotangent, (2, 2, 2), 6, 7), (build_sphere_line_bundle, (1, 1, 1), 4, 4)],
    ids=["ellipsoid-222", "sphere-111"],
)
def test_modified_curvature_applies_only_the_nested_operators(
    monkeypatch, build, params, applied, multiplied
):
    # route one reads A'_d(e_j) as column j of d(Phi) + phi_d: two derivation
    # applications and two products per column, plus the ellipsoid's C*k check
    ex = build(*params)
    pres = ex.presentation
    d1, d2, _ = ex.derivations
    potentials = [pres.phi * random_matrix(Random(290030), ex.ring, pres.n) * pres.phi] * 3
    applications = record_calls(monkeypatch, Derivation, "apply_to_vector")
    products = record_calls(monkeypatch, MatrixA, "mul_vector")
    modified_curvature(pres, d1, d2, bracket(d1, d2), *potentials)
    assert (len(applications), len(products)) == (applied, multiplied)


def test_connection_matrices_are_memoised_by_value():
    ex = build_ellipsoid_cotangent(2, 3, 4)
    pres = make_presentation(ex.ring, ex.presentation.phi, ex.dFvec)
    assert pres._connection_matrices == {}
    # rebuilt Koszul fields are equal to the example's derivations, not the same objects
    for delta, twin in zip(ex.derivations, koszul_derivations(ex.ring)):
        assert delta == twin and delta is not twin
        stored = connection_matrix(pres, delta)
        assert connection_matrix(pres, twin) is stored
        assert stored == delta.apply_to_matrix(pres.phi)
    assert len(pres._connection_matrices) == 3
    with pytest.raises(ValueError):
        connection_matrix(pres, rotations()[0])


def test_presentation_equality_ignores_the_memo():
    ex = build_ellipsoid_cotangent(2, 2, 3)
    pres = make_presentation(ex.ring, ex.presentation.phi, ex.dFvec)
    fresh = make_presentation(ex.ring, ex.presentation.phi, ex.dFvec)
    connection_matrix(pres, ex.derivations[0])
    assert pres == fresh and hash(pres) == hash(fresh)
    assert repr(pres) == repr(fresh)
    copy = pres.replace()
    assert copy == pres and copy._connection_matrices == {}
    # the checked Phi^2 - Phi and Phi*k travel with a copy
    assert copy.defect is pres.defect and copy.kernel_image is pres.kernel_image
    connection_matrix(copy, ex.derivations[1])
    assert list(pres._connection_matrices) == [ex.derivations[0]]


def test_presentation_keeps_its_checked_identities():
    ex = build_ellipsoid_cotangent(2, 3, 4)
    pres = ex.presentation
    phi = pres.phi
    assert pres.defect == phi * phi - phi and pres.defect.is_zero
    assert pres.kernel_image == phi.mul_vector(ex.dFvec)
    assert len(pres.kernel_image) == 3 and all(v.is_zero for v in pres.kernel_image)
    assert _diag_presentation().kernel_image is None
    # the stored results are left out of ==, hash and repr
    wrong = pres.replace(defect=MatrixA.identity(ex.ring, 3), kernel_image=ex.dFvec)
    assert wrong == pres and hash(wrong) == hash(pres) and repr(wrong) == repr(pres)


def _curvature_report_12():
    ex = build_ellipsoid_cotangent(2, 3, 4)
    return curvature_report(ex.presentation, *ex.derivations[:2], "d1", "d2")


# Each record's builder, its repr as the frozen dataclasses printed it before
# Record (taken from that code), and a field change that makes it unequal.
_ELLIPSOID_RING = "QuotientRing(z^4+y^3+x^2-1)"
_SPHERE_RING = "QuotientRing(x^2+y^2+z^2-1)"
RECORDS = {
    "ProjectivePresentation": (
        lambda: build_ellipsoid_cotangent(2, 3, 4).presentation,
        f"ProjectivePresentation(n=3 over {_ELLIPSOID_RING})",
        {"n": 4},
    ),
    "CurvatureReport": (
        _curvature_report_12,
        f"CurvatureReport(pair=('d1', 'd2'), commutator=MatrixA(3x3 over {_ELLIPSOID_RING}), "
        f"trace_image=RingElement(0 mod z^4+y^3+x^2-1), "
        f"trace_kernel=RingElement(0 mod z^4+y^3+x^2-1), flat=False)",
        {"flat": True},
    ),
    "DeviationReport": (
        lambda: deviation_report(build_ellipsoid_cotangent(2, 3, 4).presentation, (1, 0, 0)),
        "DeviationReport(ambient=3, rank=2, deviation=1)",
        {"rank": 3},
    ),
    "EllipsoidCotangent": (
        lambda: build_ellipsoid_cotangent(2, 3, 4),
        f"EllipsoidCotangent(p=2, q=3, r=4, ring={_ELLIPSOID_RING}, "
        f"presentation=ProjectivePresentation(n=3 over {_ELLIPSOID_RING}), "
        "derivations=(Derivation(3*y^2*d/dx + (-2*x)*d/dy), Derivation(4*z^3*d/dx + (-2*x)*d/dz), "
        "Derivation(4*z^3*d/dy + (-3*y^2)*d/dz)), dFvec=(RingElement(2*x mod z^4+y^3+x^2-1), "
        "RingElement(3*y^2 mod z^4+y^3+x^2-1), RingElement(4*z^3 mod z^4+y^3+x^2-1)))",
        {"p": 3},
    ),
    "SphereLineBundle": (
        lambda: build_sphere_line_bundle(1, 1, 1),
        f"SphereLineBundle(p=1, q=1, r=1, ring={_SPHERE_RING}, "
        f"involution=MatrixA(2x2 over {_SPHERE_RING}), idempotent=MatrixA(2x2 over {_SPHERE_RING}), "
        f"presentation=ProjectivePresentation(n=2 over {_SPHERE_RING}), "
        "derivations=(Derivation(y*d/dx + (-x)*d/dy), Derivation(z*d/dx + (-x)*d/dz), "
        f"Derivation((-z)*d/dy + y*d/dz)), square_defect=MatrixA(2x2 over {_SPHERE_RING}))",
        {"q": 2},
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_keep_the_frozen_dataclass_contract(name):
    build, text, change = RECORDS[name]
    record, twin = build(), build()
    assert type(record).__name__ == name and repr(record) == text
    # equal fields, built apart, give == and one hash; a changed field, neither
    assert record is not twin and record == twin and hash(record) == hash(twin)
    assert record.replace(**change) != record
    assert record != tuple(getattr(record, field) for field in record.__slots__)
    field = next(iter(change))
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert copy.copy(record) == record and pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(TypeError):
        type(record)(*(getattr(record, f) for f in record.__slots__ if f[0] != "_"), 1)
    with pytest.raises(TypeError):
        record.replace(unknown=1)


def test_a_pickled_presentation_starts_with_an_empty_memo():
    ex = build_ellipsoid_cotangent(2, 3, 4)
    connection_matrix(ex.presentation, ex.derivations[0])
    loaded = pickle.loads(pickle.dumps(ex.presentation))
    assert loaded == ex.presentation and loaded._connection_matrices == {}
    assert loaded.defect == ex.presentation.defect
    assert loaded.kernel_image == ex.presentation.kernel_image


def test_presentation_errors_name_their_witness():
    sphere = unit_sphere()
    phi = MatrixA.from_rows(sphere, [["1", "0"], ["0", "0"]])
    with pytest.raises(PresentationError) as info:
        make_presentation(sphere, phi, ("x", "y"))
    assert str(info.value) == "kernel generator not annihilated: Phi*k = (x, 0)"
    with pytest.raises(PresentationError) as info:
        make_presentation(sphere, MatrixA.from_rows(sphere, [["x", "0"], ["0", "0"]]))
    defect = MatrixA.from_rows(sphere, [["x^2-x", "0"], ["0", "0"]])
    assert str(info.value) == f"idempotency failure: Phi^2 - Phi = {defect}"


def test_deviation_report():
    ex = build_ellipsoid_cotangent(2, 2, 2)
    report = deviation_report(ex.presentation, (1, 0, 0))
    assert report.ambient == 3
    assert report.rank == 2
    assert report.deviation == 1
    with pytest.raises(ValueError):
        deviation_report(ex.presentation, (1, 1, 1))


def test_curvature_matrix_names_the_kernel_witness():
    # d/dx and d/dy are not tangent to the ellipsoid, so their curvature
    # need not annihilate grad(f); the error prints C*k as a vector
    ex = build_ellipsoid_cotangent(2, 3, 4)
    pres = ex.presentation
    dx, dy = (Derivation(ex.ring, images, _checked=True) for images in ((1, 0, 0), (0, 1, 0)))
    c = commutator(dx.apply_to_matrix(pres.phi), dy.apply_to_matrix(pres.phi))
    image = c.mul_vector(ex.dFvec)
    assert any(not v.is_zero for v in image)
    witness = "(" + ", ".join(str(v) for v in image) + ")"
    with pytest.raises(PresentationError) as info:
        curvature_matrix(pres, dx, dy)
    assert str(info.value) == (
        f"curvature does not annihilate the kernel generator: C*k = {witness}"
    )


def test_curvature_report_refuses_a_commutator_with_nonzero_trace(monkeypatch):
    # the image and kernel traces of the identity add up to its trace 2, so
    # only the check that the commutator's trace is zero can refuse it; the
    # sphere has no kernel generator, so curvature_matrix checks nothing more
    ex = build_sphere_line_bundle(1, 1, 1)
    monkeypatch.setattr(conn, "commutator", lambda a, b: MatrixA.identity(a.ring, a.rows))
    with pytest.raises(PresentationError, match="trace split"):
        curvature_report(ex.presentation, *ex.derivations[:2], "D1", "D2")

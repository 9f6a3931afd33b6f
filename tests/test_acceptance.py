"""End-to-end acceptance checks: every displayed identity, exact arithmetic.

Each test here is one gate. All comparisons are exact equalities in the
quotient ring; there are no tolerances anywhere.
"""

from __future__ import annotations

import itertools
import json
import time
from random import Random

import jsonschema

from hyperconn import (
    Derivation,
    MatrixA,
    QuotientRing,
    bracket,
    build_ellipsoid_cotangent,
    build_sphere_line_bundle,
    commutator,
    connection_apply,
    make_presentation,
    modified_curvature,
    operator_commutator_matrix,
    curvature_matrix,
    parse,
    reference_expected,
    trace_over_image,
    trace_over_kernel,
)
from hyperconn.cli import CheckResult, VerificationReport, run_verification
from helpers import load_schema, random_element, random_matrix, random_tangent, run_cli

TRIPLES = list(itertools.product((2, 3, 4), repeat=3))


def test_ellipsoid_identities_all_27_triples():
    """Idempotency, kernel, tangency, differentials, one-form scalars,
    nested-operator scalars and bracket relations for every (p, q, r) in
    {2,3,4}^3, under 60 s."""
    start = time.perf_counter()
    assert len(TRIPLES) == 27
    for p, q, r in TRIPLES:
        ex = build_ellipsoid_cotangent(p, q, r)
        ring = ex.ring
        phi = ex.presentation.phi
        d1, d2, d3 = ex.derivations

        assert phi * phi == phi, (p, q, r)

        assert all(v.is_zero for v in phi.mul_vector(ex.dFvec)), (p, q, r)

        f = ring.modulus
        for d in ex.derivations:
            image_of_f = ring.zero()
            for k in range(3):
                image_of_f = image_of_f + d.images[k] * ring.element(
                    f.partial_derivative(k)
                )
            assert image_of_f.is_zero, (p, q, r)
            assert d.modulus_image().is_zero, (p, q, r)

        for i, d in enumerate(ex.derivations, 1):
            golden = reference_expected("ellipsoid", f"d{i}M", p, q, r)
            assert d.apply_to_matrix(phi) == golden, (p, q, r, i)

        applied = [connection_apply(ex.presentation, d, ex.dFvec) for d in ex.derivations]
        for i, vector in enumerate(applied, 1):
            scalar = reference_expected("ellipsoid", f"formone-scalar-{i}", p, q, r)
            for a, v in zip(vector, ex.dFvec):
                assert (a - scalar * v).is_zero, (p, q, r, i)

        # nested-12 applies d2 first, then d1; nested-21 the other way round
        for outer, inner, tag in ((d1, applied[1], "12"), (d2, applied[0], "21")):
            scalar = reference_expected("ellipsoid", f"nested-{tag}-scalar", p, q, r)
            nested = connection_apply(ex.presentation, outer, inner)
            for a, v in zip(nested, ex.dFvec):
                assert (a - scalar * v).is_zero, (p, q, r, tag)

        pairs = (
            (d1, d2, d3, "12"),
            (d1, d3, d2, "13"),
            (d2, d3, d1, "23"),
        )
        for left, right, third, tag in pairs:
            scalar = reference_expected("ellipsoid", f"bracket-scalar-{tag}", p, q, r)
            assert bracket(left, right) == third * scalar, (p, q, r, tag)

    assert time.perf_counter() - start < 60.0


def test_ellipsoid_curvature_all_27_triples():
    """Curvature kills the kernel generator, both traces vanish, and the
    (d1, d2) curvature is nonzero on the module, for every triple."""
    start = time.perf_counter()
    for p, q, r in TRIPLES:
        ex = build_ellipsoid_cotangent(p, q, r)
        pres = ex.presentation
        phi = pres.phi
        diffs = [d.apply_to_matrix(phi) for d in ex.derivations]

        for i, j in ((0, 1), (0, 2), (1, 2)):
            c = commutator(diffs[i], diffs[j])
            assert all(v.is_zero for v in c.mul_vector(ex.dFvec)), (p, q, r, i, j)
            assert trace_over_image(pres, c).is_zero, (p, q, r, i, j)
            assert trace_over_kernel(pres, c).is_zero, (p, q, r, i, j)

        induced = phi * commutator(diffs[0], diffs[1]) * phi
        assert not induced.is_zero, (p, q, r)

    assert time.perf_counter() - start < 60.0


def test_sphere_line_bundle_goldens():
    """Involution, idempotent, differential and curvature goldens (corrected
    and printed displays), and the three nonzero curvature traces with their
    printed multiples, for the unit sphere bundle, under 5 s."""
    start = time.perf_counter()
    ex = build_sphere_line_bundle(1, 1, 1)
    ring = ex.ring
    m = ex.idempotent
    identity = MatrixA.identity(ring, 2)

    assert ex.involution * ex.involution == identity
    assert m * m == m

    dm = [d.apply_to_matrix(m) for d in ex.derivations]
    assert dm[0] == reference_expected("sphere", "d1M", 1, 1, 1)
    assert dm[1] == reference_expected("sphere", "d2M", 1, 1, 1)

    printed = reference_expected("sphere", "d3M-printed", 1, 1, 1)
    assert dm[2] == reference_expected("sphere", "d3M-corrected", 1, 1, 1)
    assert dm[2] == printed * -1
    assert dm[2] != printed
    report = run_verification("sphere", 1, 1, 1)
    by_name = {check.name: check.status for check in report.checks}
    assert by_name["d3M-sign"] == "discrepancy"
    assert not report.failed

    pairs = ((0, 1, "12"), (0, 2, "13"), (1, 2, "23"))
    curvature = {tag: commutator(dm[i], dm[j]) for i, j, tag in pairs}
    assert curvature["12"] == reference_expected("sphere", "R12", 1, 1, 1)
    # the pair-13 display carries the d3M sign through: computed = -printed
    assert curvature["13"] == reference_expected("sphere", "R13-corrected", 1, 1, 1)
    assert curvature["13"] == -reference_expected("sphere", "R13-printed", 1, 1, 1)
    # the pair-23 display additionally misprints one entry, so the printed
    # matrix matches the computation in neither sign
    printed23 = reference_expected("sphere", "R23-printed", 1, 1, 1)
    assert curvature["23"] == reference_expected("sphere", "R23-corrected", 1, 1, 1)
    assert curvature["23"] != printed23
    assert curvature["23"] != -printed23

    pres_m = make_presentation(ring, m)
    for tag, c in curvature.items():
        computed = trace_over_image(pres_m, c)
        golden = reference_expected("sphere", f"trace-{tag}-image", 1, 1, 1)
        assert computed == golden, tag
        assert not computed.is_zero, tag
        printed_trace = reference_expected("sphere", f"trace-{tag}-printed", 1, 1, 1)
        assert printed_trace == computed * (2 if tag == "12" else -2), tag

    assert time.perf_counter() - start < 5.0


def test_operator_property_suites():
    """Randomized identity suites, 100 to 200 exact cases each: commutator
    traces, the image/kernel trace split of curvature on two ellipsoids,
    scalar and matrix Leibniz rules and additivity for single rotation fields
    and their A-linear combinations, bracket antisymmetry and Jacobi,
    Cayley-Hamilton, and block-triangular characteristic-polynomial
    multiplicativity."""
    ring = QuotientRing(parse("x^2+y^2+z^2-1"))

    rng = Random(917001)
    for _ in range(100):
        n = rng.choice((2, 3))
        a = random_matrix(rng, ring, n, max_degree=1, max_terms=2)
        b = random_matrix(rng, ring, n, max_degree=1, max_terms=2)
        assert commutator(a, b).trace().is_zero

    rng = Random(442200)
    for triple in ((2, 2, 2), (3, 2, 4)):
        ex = build_ellipsoid_cotangent(*triple)
        for _ in range(100):
            delta = random_tangent(rng, ex.ring, ex.derivations, max_degree=1, max_terms=1)
            eta = random_tangent(rng, ex.ring, ex.derivations, max_degree=1, max_terms=1)
            c = curvature_matrix(ex.presentation, delta, eta)
            split = trace_over_image(ex.presentation, c) + trace_over_kernel(
                ex.presentation, c
            )
            assert split.is_zero, triple

    rotations = (
        ("y", "-x", "0"),
        ("z", "0", "-x"),
        ("0", "-z", "y"),
    )
    fields = [Derivation(ring, images) for images in rotations]
    rng = Random(660033)
    for case in range(160):
        d = rng.choice(fields) if case % 2 else random_tangent(rng, ring, fields)
        a = random_element(rng, ring)
        b = random_element(rng, ring)
        assert d.apply(a * b) == a * d.apply(b) + b * d.apply(a)
        assert d.apply(a + b) == d.apply(a) + d.apply(b)

    rng = Random(778899)
    for _ in range(100):
        u = random_tangent(rng, ring, fields, max_degree=1, max_terms=1)
        v = random_tangent(rng, ring, fields, max_degree=1, max_terms=1)
        w = random_tangent(rng, ring, fields, max_degree=1, max_terms=1)
        assert bracket(u, v) == -bracket(v, u)
        jacobi = (
            bracket(u, bracket(v, w))
            + bracket(v, bracket(w, u))
            + bracket(w, bracket(u, v))
        )
        assert jacobi.is_zero

    rng = Random(135791)
    for case in range(100):
        n = 2 if case % 2 == 0 else 3
        m = random_matrix(rng, ring, n, max_degree=1, max_terms=2)
        assert m.char_poly().evaluate_matrix(m).is_zero

    rng = Random(246802)
    zero = ring.zero()
    for case in range(100):
        top = 1 if case % 2 == 0 else 2
        m_rows = [
            [random_element(rng, ring, max_degree=1, max_terms=1) for _ in range(3)]
            for _ in range(3)
        ]
        for i in range(top, 3):
            for j in range(top):
                m_rows[i][j] = zero
        m = MatrixA.from_rows(ring, m_rows)
        upper = MatrixA.from_rows(
            ring, [[m_rows[i][j] for j in range(top)] for i in range(top)]
        )
        lower = MatrixA.from_rows(
            ring, [[m_rows[i][j] for j in range(top, 3)] for i in range(top, 3)]
        )
        assert m.char_poly() == upper.char_poly() * lower.char_poly()

    rng = Random(987123)
    for case in range(120):
        if case % 2:
            d = rng.choice(fields)
        else:
            d = random_tangent(rng, ring, fields, max_degree=1, max_terms=1)
        a = random_matrix(rng, ring, 2)
        b = random_matrix(rng, ring, 2)
        assert d.apply_to_matrix(a * b) == d.apply_to_matrix(a) * b + a * d.apply_to_matrix(b)


def test_shifted_connection_identity():
    """Direct curvature of a shifted connection equals the assembled
    right-hand side on induced endomorphisms, for 20 random
    module-preserving potentials on the (2, 2, 2) example."""
    ex = build_ellipsoid_cotangent(2, 2, 2)
    pres = ex.presentation
    phi = pres.phi
    d1, d2, d3 = ex.derivations
    pairs = ((d1, d2), (d1, d3), (d2, d3))

    rng = Random(515000)
    for case in range(20):
        delta, eta = pairs[case % 3]
        lie = bracket(delta, eta)

        def potential():
            raw = random_matrix(rng, ex.ring, 3, max_degree=1, max_terms=1)
            return phi * raw * phi

        phi_delta = potential()
        phi_eta = potential()
        phi_bracket = potential()

        direct = modified_curvature(
            pres, delta, eta, lie, phi_delta, phi_eta, phi_bracket
        )
        assembled = (
            curvature_matrix(pres, delta, eta)
            + (commutator(phi_delta, phi_eta) - phi_bracket)
            + operator_commutator_matrix(pres, delta, phi_eta)
            - operator_commutator_matrix(pres, eta, phi_delta)
        )
        assert phi * direct * phi == phi * assembled * phi, case


def test_cli_contract():
    """JSON output is byte-deterministic across runs and parallelism, every
    ellipsoid (2,3,4) check passes with zero traces in a schema-valid report,
    exit codes match the documented contract, and the full parameter sweep
    at --max 4 finishes under 60 s."""
    baseline = run_cli("verify", "ellipsoid", "--p", "2", "--q", "3", "--r", "4", "--json")
    assert baseline.returncode == 0
    repeat = run_cli("verify", "ellipsoid", "--p", "2", "--q", "3", "--r", "4", "--json")
    parallel = run_cli(
        "verify", "ellipsoid", "--p", "2", "--q", "3", "--r", "4", "--json",
        "--parallel", "8",
    )
    assert repeat.stdout == baseline.stdout
    assert parallel.stdout == baseline.stdout
    assert repeat.returncode == parallel.returncode == 0
    payload = json.loads(baseline.stdout)
    assert payload["example"] == "ellipsoid"
    assert payload["parameters"] == {"p": 2, "q": 3, "r": 4}
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["discrepancy"] == 0
    assert {check["status"] for check in payload["checks"]} == {"pass"}
    for entry in payload["curvature"]:
        assert entry["trace_image"] == "0"
        assert entry["trace_kernel"] == "0"
        assert entry["flat"] is False
    jsonschema.validate(payload, load_schema())

    with_discrepancies = run_cli("verify", "sphere", "--p", "1", "--q", "1", "--r", "1")
    assert with_discrepancies.returncode == 0

    usage = run_cli("verify", "ellipsoid", "--p", "1", "--q", "2", "--r", "2")
    assert usage.returncode == 2
    assert "requires p, q, r >= 2" in usage.stderr
    bad_expr = run_cli("eval", "x +", "mod", "x^2+y^2+z^2-1")
    assert bad_expr.returncode == 2

    failing = VerificationReport(
        example="ellipsoid",
        p=2,
        q=2,
        r=2,
        checks=(CheckResult(name="idempotent", status="fail", witness="x", seconds=0.0),),
        curvature=(),
        notes=(),
    )
    assert failing.failed

    start = time.perf_counter()
    sweep = run_cli("sweep", "ellipsoid", "--max", "4", "--json")
    elapsed = time.perf_counter() - start
    assert sweep.returncode == 0
    assert elapsed < 60.0
    body = json.loads(sweep.stdout)
    assert len(body["reports"]) == 27
    assert body["summary"]["fail"] == 0

"""CLI behavior: output formats, determinism, exit codes, schema."""

from __future__ import annotations

import concurrent.futures
import json
import re
import subprocess
import sys

import jsonschema
import pytest

from hyperconn import catalog, cli, conn
from hyperconn.cli import (
    ELLIPSOID_CHECKS,
    MAX_EVAL_WORK,
    MAX_SWEEP,
    SPHERE_CHECKS,
    CheckResult,
    UsageError,
    VerificationReport,
    build_parser,
    cmd_sweep,
    main,
    run_verification,
)
from hyperconn.deriv import Derivation
from hyperconn.matring import MatrixA
from hyperconn.polycore import MAX_EXPONENT, MAX_POWER_TERMS, parse
from hyperconn.quotient import QuotientRing, RingElement
from helpers import child_env, load_schema, record_calls, run_cli, run_main


def test_verify_usage_errors_exit_2():
    result = run_main("verify", "sphere", "--p", "0", "--q", "1", "--r", "1")
    assert result.returncode == 2
    result = run_main("verify", "torus", "--p", "2", "--q", "2", "--r", "2")
    assert result.returncode == 2
    result = run_main("verify", "ellipsoid", "--p", "2", "--q", "2")
    assert result.returncode == 2
    # verify and sweep refuse --parallel below 1 through one check
    for command in (("verify", "ellipsoid", "--p", "2", "--q", "2", "--r", "2"),
                    ("sweep", "ellipsoid", "--max", "2")):
        result = run_main(*command, "--parallel", "-3")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: --parallel must be a positive integer\n"


def test_sweep_counts_and_determinism():
    serial = run_main("sweep", "sphere", "--max", "2", "--json")
    assert serial.returncode == 0
    payload = json.loads(serial.stdout)
    assert payload["max"] == 2
    assert len(payload["reports"]) == 8
    triples = [
        (r["parameters"]["p"], r["parameters"]["q"], r["parameters"]["r"])
        for r in payload["reports"]
    ]
    assert triples == sorted(triples)
    # the golden triple (1, 1, 1) comes first and holds the sweep's two discrepancies
    assert payload["reports"][0]["summary"] == {"pass": 12, "fail": 0, "discrepancy": 2}
    assert payload["summary"]["discrepancy"] == 2
    parallel = run_cli("sweep", "sphere", "--max", "2", "--json", "--parallel", "4")
    assert parallel.stdout == serial.stdout
    jsonschema.validate(payload, load_schema())
    single = json.loads(run_main("sweep", "ellipsoid", "--max", "2", "--json").stdout)
    assert [r["parameters"] for r in single["reports"]] == [{"p": 2, "q": 2, "r": 2}]


def test_eval_examples():
    assert run_main("eval", "x^2+y^2+z^2", "mod", "x^2+y^2+z^2-1").stdout == "1\n"
    assert run_main("eval", "x*(x^2+y^2+z^2-1)", "mod", "x^2+y^2+z^2-1").stdout == "0\n"
    assert run_main("eval", "(y+i*z)*(y-i*z)+x^2", "mod", "x^2+y^2+z^2-1").stdout == "1\n"


def test_eval_parse_error_exit_2():
    result = run_main("eval", "x^", "mod", "x^2-1")
    assert result.returncode == 2
    assert "parse error" in result.stderr
    result = run_main("eval", "x", "mod", "7")
    assert result.returncode == 2


def test_eval_non_ascii_digit_exit_2():
    result = run_main("eval", "x^\u00b2", "mod", "x^2-1")  # superscript two
    assert result.returncode == 2
    assert "parse error" in result.stderr
    assert "Traceback" not in result.stderr


def test_eval_deep_nesting_exit_2(capsys):
    parentheses = "(" * 3000 + "x" + ")" * 3000
    assert main(["eval", parentheses, "mod", "x^2-1"]) == 2
    assert "nested deeper" in capsys.readouterr().err
    assert main(["eval", "0" + "-" * 3000 + "x", "mod", "x^2-1"]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_eval_exponent_cap_exit_2():
    for exponent in (MAX_EXPONENT + 1, 999999999):
        result = run_cli("eval", f"x^{exponent}", "mod", "x^2-1", timeout=60)
        assert result.returncode == 2
        assert "exceeds the limit" in result.stderr
    accepted = run_cli("eval", f"x^{MAX_EXPONENT}", "mod", "x^2-1", timeout=60)
    assert accepted.returncode == 0
    assert accepted.stdout == "1\n"


def test_eval_power_term_bound_exit_2():
    # the exponent literal is under the cap, but the expansion would not finish
    result = run_cli("eval", "(x+y+z)^1000", "mod", "x^2+y^2+z^2-1", timeout=30)
    assert result.returncode == 2
    assert f"more than {MAX_POWER_TERMS} terms" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("exponent", [20, 42])
def test_eval_coefficient_size_bound_exit_2(exponent):
    # few terms, but every coefficient grows to tens of thousands of digits:
    # the 20th power took seconds and the 42nd did not finish in a minute
    base = f"({'9' * 4000}*x+{'8' * 4000}*y+z)"
    result = run_cli("eval", f"{base}^{exponent}", "mod", "x^2+y^2+z^2-1", timeout=30)
    assert result.returncode == 2
    assert "weighted by coefficient size" in result.stderr
    assert "Traceback" not in result.stderr


def test_eval_normal_form_work_bound_exit_2(capsys):
    # x^1000 passes every parse limit, but its reduction would run for over half an hour
    result = run_cli("eval", "x^1000", "mod", "x^2+y^2+z^2-1", timeout=30)
    assert result.returncode == 2
    assert f"more than {MAX_EVAL_WORK} term updates" in result.stderr
    assert "Traceback" not in result.stderr
    # d = 71: C(74, 3)*4 = 259,296 term updates at most
    assert main(["eval", "x^73", "mod", "x^2+y^2+z^2-1"]) == 2
    # a modulus of 947 terms makes even a small degree gap too much work
    assert main(["eval", "x^100", "mod", "(x+y+z)^42-1"]) == 2
    assert "term updates" in capsys.readouterr().err


def test_eval_work_bound_weighs_modulus_coefficients(capsys):
    # every reduction step divides by the 4,000-digit leading coefficient, so
    # the reduction would run for over 30 s
    result = run_cli("eval", "x^72", "mod", f"{'9' * 4000}*x^2+y^2+z^2-1", timeout=30)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "term updates, weighted by coefficient size" in result.stderr
    assert "Traceback" not in result.stderr
    # coefficients of +-1 weigh 1: x^72 is still the largest sphere power reduced
    assert main(["eval", "x^72", "mod", "x^2+y^2+z^2-1"]) == 0
    sphere = QuotientRing(parse("x^2+y^2+z^2-1"))
    assert capsys.readouterr().out == f"{sphere.element('x^72')}\n"


@pytest.mark.parametrize(
    "expression, modulus, message",
    [
        (f"{'9' * 4000}*{'8' * 4000}", "x^2+y^2+z^2-1", "limit for printing an integer"),
        (f"({'9' * 4000}*x+{'8' * 4000}*y+z)^5", "x^2+y^2+z^2-1", "limit for printing"),
        ("x^72", f"{'7' * 150}*x^2+y^2+z^2-1", "weighted by coefficient size"),
    ],
    ids=["product", "power", "modulus"],
)
def test_eval_unprintable_result_exit_2(expression, modulus, message):
    # each result would have a coefficient past Python's 4,300-digit
    # int-to-str limit; the work bound's coefficient weight refuses the third
    # before reducing
    result = run_cli("eval", expression, "mod", modulus, timeout=30)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert message in result.stderr


def test_eval_prints_up_to_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    largest = "9" * limit
    assert main(["eval", largest, "mod", "x^2+y^2+z^2-1"]) == 0
    assert capsys.readouterr().out == largest + "\n"
    assert main(["eval", f"({largest}+1)*x", "mod", "x^2+y^2+z^2-1"]) == 2
    assert f"more than {limit} digits" in capsys.readouterr().err


def test_eval_operands_led_by_minus(capsys):
    result = run_main("eval", "-x", "mod", "x^2-1")
    assert (result.returncode, result.stdout, result.stderr) == (0, "-x\n", "")
    assert main(["eval", "x", "mod", "-x^2+1"]) == 0
    assert capsys.readouterr().out == "x\n"
    assert main(["eval", "--", "-x", "mod", "x^2-1"]) == 0
    assert capsys.readouterr().out == "-x\n"
    assert main(["eval", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: hyperconn eval")


def test_main_is_reentrant_and_builds_its_parser_once(monkeypatch):
    # COLUMNS fixes argparse's help width here and in the child processes
    monkeypatch.setenv("COLUMNS", "80")
    built = record_calls(monkeypatch, cli, "build_parser")
    cli._parser.cache_clear()
    sequence = (
        ["verify", "ellipsoid", "--p", "2"],  # usage error, exit 2
        ["eval", "-h"],
        ["eval", "-x", "mod", "x^2-1"],
        ["verify", "sphere", "--p", "1", "--q", "1", "--r", "1", "--json"],
        ["eval", "(x+2*i*y)^5", "mod", "x^2+y^2+z^2-1"],
    )
    codes = []
    try:
        for argv in sequence:
            here, fresh = run_main(*argv), run_cli(*argv)
            codes.append(here.returncode)
            assert (here.returncode, here.stdout, here.stderr) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
    finally:
        cli._parser.cache_clear()
    assert codes == [2, 0, 0, 0, 0]
    assert len(built) == 1


def test_report_list_checks_covers_report_names():
    result = run_main("report", "--list-checks", "--json")
    assert result.returncode == 0
    listing = json.loads(result.stdout)
    assert listing["ellipsoid"] == list(ELLIPSOID_CHECKS)
    assert listing["sphere"] == list(SPHERE_CHECKS)
    for example, p in (("ellipsoid", 2), ("sphere", 1)):
        report = run_verification(example, p, p, p)
        for check in report.checks:
            assert check.name in listing[example]
        assert [c.name for c in report.checks] == list(listing[example])
    # away from (1, 1, 1) the sphere runs its table without the golden rows
    golden = {
        "d1M-golden",
        "d2M-golden",
        "d3M-sign",
        "R12-golden",
        "trace-image-12",
        "trace-image-13",
        "trace-image-23",
        "trace-normalization",
    }
    report = run_verification("sphere", 2, 1, 1)
    assert [c.name for c in report.checks] == [n for n in SPHERE_CHECKS if n not in golden]
    assert report.counts() == {"pass": 6, "fail": 0, "discrepancy": 0}


@pytest.mark.parametrize("example, triple", [("ellipsoid", (2, 3, 4)), ("sphere", (1, 1, 1))])
def test_verification_shares_curvature_work(monkeypatch, example, triple):
    # rows and the curvature block share one curvature report per pair, a
    # report reads its flatness and traces without a matrix product, and a
    # commutator is one sum of products per entry. What is left: the sphere's
    # P^2 and Phi^2, which its builder and the idempotent row share, and the
    # ellipsoid's Phi^2 and its nonflat-12 witness Phi*C (4 and 5 products
    # when every report formed Phi*C)
    calls = record_calls(monkeypatch, MatrixA, "__mul__")
    run_verification(example, *triple)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "example, triple",
    [("ellipsoid", (2, 3, 4)), ("sphere", (1, 1, 1)), ("sphere", (2, 1, 1))],
)
def test_verification_differentiates_phi_once_per_derivation(monkeypatch, example, triple):
    # the golden, connection and curvature rows share each delta(Phi) through
    # the presentation's memo, so a verify applies each derivation to Phi once
    calls = record_calls(monkeypatch, Derivation, "apply_to_matrix")
    run_verification(example, *triple)
    assert len(calls) == 3


@pytest.mark.parametrize(
    "example, triple, applications",
    [("ellipsoid", (2, 3, 4), (3, 2)), ("sphere", (1, 1, 1), (0, 0))],
)
def test_context_forms_the_shared_work_before_any_row(monkeypatch, example, triple, applications):
    # the build is followed by the three curvature reports and, when there is a
    # kernel generator k, each A_{d_i}(k); the rows then read them and apply
    # only the nested rows' outer connections: for the ellipsoid, formone-i and
    # the inner application of nested-ji share A_{d_i}(dFvec) (7 before)
    reports = record_calls(monkeypatch, cli, "curvature_report")
    applied = record_calls(monkeypatch, cli, "connection_apply")
    ctx = cli._Context(example, *triple)
    assert (len(reports), len(applied)) == (3, applications[0])
    for _, check in ctx.family.rows:
        check(ctx)
    assert (len(reports), len(applied)) == (3, sum(applications))


@pytest.mark.parametrize("triple", [(1, 1, 1), (2, 1, 1)])
def test_sphere_verify_computes_delta_f_once_per_koszul_field(monkeypatch, triple):
    # the scaled fields k12/2, k13/2 and -k23/2 keep the zero delta(f) that
    # koszul_derivations found, so the tangency rows reduce nothing (6 before)
    calls = record_calls(monkeypatch, Derivation, "_apply_rep")
    report = run_verification("sphere", *triple)
    assert sum(rep is delta.ring.modulus for delta, rep in calls) == 3
    assert all(c.status == "pass" for c in report.checks if c.name.startswith("tangency"))


def test_sphere_reference_table_is_built_once(monkeypatch):
    # the nine displays and six traces of the sphere are one table, built the
    # first time a process reads it; a repeat verify reduces nothing to look up
    reductions = record_calls(monkeypatch, QuotientRing, "nf")
    in_reference = 0
    original_expected = catalog.reference_expected

    def expected(*args):
        nonlocal in_reference
        before = len(reductions)
        value = original_expected(*args)
        in_reference += len(reductions) - before
        return value

    monkeypatch.setattr(catalog, "reference_expected", expected)
    catalog._sphere_displays.cache_clear()
    counts = []
    for example, triple in [("sphere", (1, 1, 1))] * 2 + [("ellipsoid", (2, 3, 4))]:
        reductions.clear()
        in_reference = 0
        run_verification(example, *triple)
        counts.append((len(reductions), in_reference))
    assert catalog._sphere_displays.cache_info().misses == 1
    assert counts[0][0] <= 124  # 208 when each lookup rebuilt every display
    # 90 and 278 when the identity rows recomputed Phi^2, P^2, Phi*k and delta(f)
    # 82 and 263 when every report formed Phi*C, the formone and nested rows
    # applied the connection apart, the sphere's scaled fields recomputed
    # delta(f) and a constant factor was reduced
    assert counts[1] == (57, 0)
    assert counts[2][0] == 231


@pytest.mark.parametrize("example, triple", [("ellipsoid", (2, 3, 4)), ("sphere", (1, 1, 1))])
def test_verification_builds_one_ring(monkeypatch, example, triple):
    # the build, the goldens and the sphere's display table share the ring of
    # the last modulus built; 12 and 2 rings when each made its own
    made = record_calls(monkeypatch, QuotientRing, "__init__")
    catalog._fermat_ring.cache_clear()
    catalog._sphere_displays.cache_clear()
    run_verification(example, *triple)
    assert len(made) == 1


@pytest.mark.parametrize(
    "arguments, code",
    [
        (("ellipsoid", "--p", "1001", "--q", "2", "--r", "3"), 2),
        (("ellipsoid", "--p", "1000000000", "--q", "2", "--r", "3"), 2),
        (("sphere", "--p", "1000000000", "--q", "1", "--r", "1"), 2),
        (("sphere", "--p", "1000", "--q", "1", "--r", "1"), 0),
    ],
)
def test_verify_parameter_bound(arguments, code):
    # evaluating x^p at the base point takes p products, so p, q and r are
    # capped at the parser's exponent limit before anything is built
    result = run_cli("verify", *arguments, timeout=30)
    assert result.returncode == code
    if code == 2:
        assert result.stdout == ""
        assert result.stderr == f"error: p, q, r must be <= {MAX_EXPONENT}, got " + (
            "(" + ", ".join(arguments[2::2]) + ")\n"
        )


@pytest.mark.parametrize("tokens", [("x", "mod"), ("x^3", "x^2-1"), ("x",)])
def test_eval_requires_the_mod_keyword(capsys, tokens):
    assert main(["eval", *tokens]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        'error: eval expects: EXPR mod MODULUS (e.g. eval "x^2" mod "x^2-1")\n'
    )


def _perturbed_reference(monkeypatch):
    """Make every reference value the catalog hands the cli off by one."""
    original = catalog.reference_expected

    def perturbed(*args):
        value = original(*args)
        if isinstance(value, MatrixA):
            return value + MatrixA.identity(value.ring, value.rows)
        assert isinstance(value, RingElement)
        return value + 1

    monkeypatch.setattr(catalog, "reference_expected", perturbed)


def _rows(report) -> dict:
    return {c.name: (c.status, c.witness) for c in report.checks}


def test_ellipsoid_rows_fail_against_wrong_references(monkeypatch, capsys):
    _perturbed_reference(monkeypatch)
    ex = catalog.build_ellipsoid_cotangent(2, 3, 4)
    d = ex.derivations
    identity = MatrixA.identity(ex.ring, 3)
    rows = _rows(run_verification("ellipsoid", 2, 3, 4))
    # _match_status: computed - (expected + I) = -I
    assert rows["d1M-golden"] == ("fail", f"difference {-identity}")
    # _vector_status: applied - (scalar + 1)*dF = -dF
    minus_dfvec = "(" + ", ".join(str(-v) for v in ex.dFvec) + ")"
    assert rows["formone-1"] == ("fail", minus_dfvec)
    assert rows["nested-12"] == ("fail", minus_dfvec)
    # _zero_status: [d1, d2] - (scalar + 1)*d3 = -d3
    assert rows["bracket-12"] == ("fail", str(-d[2]))
    assert rows["idempotent"] == ("pass", "0")
    assert rows["kernel-annihilation"] == ("pass", "0")
    assert main(["verify", "ellipsoid", "--p", "2", "--q", "3", "--r", "4"]) == 1
    captured = capsys.readouterr()
    assert "  d1M-golden" in captured.out and "witness: difference" in captured.out
    assert captured.err == ""


def test_ellipsoid_construction_rows_report_the_stored_results(monkeypatch, capsys):
    # the idempotent and kernel-annihilation rows print what make_presentation
    # stored; a builder that stored nonzero results makes them fail
    ex = catalog.build_ellipsoid_cotangent(2, 3, 4)
    defect = MatrixA.identity(ex.ring, 3)
    pres = ex.presentation.replace(defect=defect, kernel_image=ex.dFvec)
    wrong = ex.replace(presentation=pres)
    monkeypatch.setattr(catalog, "build_ellipsoid_cotangent", lambda p, q, r: wrong)
    rows = _rows(run_verification("ellipsoid", 2, 3, 4))
    assert rows["idempotent"] == ("fail", str(defect))
    assert rows["kernel-annihilation"] == ("fail", "(2*x, 3*y^2, 4*z^3)")
    assert main(["verify", "ellipsoid", "--p", "2", "--q", "3", "--r", "4"]) == 1
    captured = capsys.readouterr()
    assert "witness: (2*x, 3*y^2, 4*z^3)" in captured.out and captured.err == ""
    # the tangency rows print delta(f); the ellipsoid's other rows need tangent
    # derivations, so its tangency row runs alone on an unchecked d/dx
    ctx = cli._Context("ellipsoid", 2, 3, 4)
    ctx.ex = ex.replace(derivations=(Derivation(ex.ring, (1, 0, 0), _checked=True),))
    assert dict(cli._ELLIPSOID_ROWS)["tangency-d1"](ctx) == ("fail", "2*x")


def test_sphere_construction_rows_report_the_stored_results(monkeypatch, capsys):
    ex = catalog.build_sphere_line_bundle(2, 1, 1)
    ring = ex.ring
    identity = MatrixA.identity(ring, 2)
    pres = ex.presentation.replace(defect=-identity)
    # d/dx, d/dy, d/dz, built unchecked: f = x^4 + y^2 + z^2 - 1 is not sent to 0
    unchecked = tuple(Derivation(ring, images, _checked=True)
                      for images in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    wrong = ex.replace(presentation=pres, derivations=unchecked, square_defect=identity)
    monkeypatch.setattr(catalog, "build_sphere_line_bundle", lambda p, q, r: wrong)
    rows = _rows(run_verification("sphere", 2, 1, 1))
    assert rows["involution"] == ("fail", str(identity))
    assert rows["idempotent"] == ("fail", str(-identity))
    assert rows["tangency-D1"] == ("fail", "4*x^3")
    assert rows["tangency-D2"] == ("fail", "2*y")
    assert rows["tangency-D3"] == ("fail", "2*z")
    assert main(["verify", "sphere", "--p", "2", "--q", "1", "--r", "1", "--json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["summary"]["fail"] == 5
    assert captured.err == ""


def test_sphere_rows_fail_against_wrong_references(monkeypatch, capsys):
    _perturbed_reference(monkeypatch)
    report = run_verification("sphere", 1, 1, 1)
    rows = _rows(report)
    status, witness = rows["d3M-sign"]
    assert status == "fail" and witness.startswith("difference ")
    assert rows["d1M-golden"][0] == "fail"
    computed = report.curvature[0]["trace_kernel"]
    expected = catalog.reference_expected("sphere", "trace-12-image", 1, 1, 1)
    assert rows["trace-image-12"] == ("fail", f"computed {computed}, expected {expected}")
    assert rows["trace-normalization"] == (
        "fail", "no constant relation between traces for pair 12"
    )
    assert main(["verify", "sphere", "--p", "1", "--q", "1", "--r", "1", "--json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["summary"]["fail"] == 8
    assert captured.err == ""


def test_sphere_sign_and_normalization_rows_pass(monkeypatch, capsys):
    # the bundled displays carry a sign and a factor misprint; with the
    # corrected D3(M) and the computed traces as references both rows pass
    ex = catalog.build_sphere_line_bundle(1, 1, 1)
    d = ex.derivations
    original = catalog.reference_expected

    def matching(example, check_id, *params):
        if check_id == "d3M-printed":
            return original(example, "d3M-corrected", *params)
        if check_id.startswith("trace-") and check_id.endswith("-printed"):
            i, j = int(check_id[6]) - 1, int(check_id[7]) - 1
            return conn.curvature_report(ex.presentation, d[i], d[j], "D", "D").trace_kernel
        return original(example, check_id, *params)

    monkeypatch.setattr(catalog, "reference_expected", matching)
    rows = _rows(run_verification("sphere", 1, 1, 1))
    corrected = original("sphere", "d3M-corrected", 1, 1, 1)
    assert rows["d3M-sign"] == ("pass", str(corrected))
    assert rows["trace-normalization"] == ("pass", "reference traces match computed traces")
    assert main(["verify", "sphere", "--p", "1", "--q", "1", "--r", "1", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["summary"] == {"pass": 14, "fail": 0, "discrepancy": 0}
    assert captured.err == ""


def test_rank_and_flatness_rows_fail(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "deviation_report", lambda pres, point: conn.DeviationReport(3, 3, 0)
    )

    def flat_report(pres, delta, eta, *labels):
        report = conn.curvature_report(pres, delta, eta, *labels)
        return report.replace(flat=True)

    monkeypatch.setattr(cli, "curvature_report", flat_report)
    rows = _rows(run_verification("ellipsoid", 2, 3, 4))
    assert rows["deviation"] == ("fail", "ambient 3, rank 3, deviation 0")
    assert rows["nonflat-12"] == ("fail", "0")
    assert main(["verify", "ellipsoid", "--p", "2", "--q", "3", "--r", "4"]) == 1
    captured = capsys.readouterr()
    assert "witness: ambient 3, rank 3, deviation 0" in captured.out
    assert captured.err == ""


def test_deviation_row_fails_a_lower_rank(monkeypatch):
    # the ellipsoid's module has rank exactly 2 at (1, 0, 0); rank 1 fails as rank 3 does
    monkeypatch.setattr(cli, "deviation_report", lambda pres, point: conn.DeviationReport(3, 1, 2))
    ctx = cli._Context("ellipsoid", 2, 3, 4)
    row = dict(cli._ELLIPSOID_ROWS)["deviation"]
    assert row(ctx) == ("fail", "ambient 3, rank 1, deviation 2")


def test_sphere_trace_row_fails_a_zero_trace(monkeypatch):
    # the sphere's traces over the image of M are nonzero, so a zero trace
    # fails even against a zero reference
    ctx = cli._Context("sphere", 1, 1, 1)
    zero = ctx.ex.ring.zero()
    ctx.curvature[0, 1] = ctx.curvature[0, 1].replace(trace_kernel=zero)
    monkeypatch.setattr(catalog, "reference_expected", lambda *args: zero)
    assert dict(cli._SPHERE_ROWS)["trace-image-12"](ctx) == ("fail", "computed 0, expected 0")


def test_report_requires_flag():
    result = run_main("report")
    assert result.returncode == 2


def test_timings_flag_adds_seconds(capsys):
    command = ["verify", "sphere", "--p", "2", "--q", "2", "--r", "2"]
    assert main([*command, "--json", "--timings"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all("seconds" in check for check in payload["checks"])
    jsonschema.validate(payload, load_schema())
    assert main([*command, "--json"]) == 0
    bare_payload = json.loads(capsys.readouterr().out)
    assert all("seconds" not in check for check in bare_payload["checks"])
    # text: each check line ends with its seconds
    assert main([*command, "--timings"]) == 0
    lines = capsys.readouterr().out.splitlines()
    check_lines = lines[1 : 1 + len(payload["checks"])]
    assert all(re.fullmatch(r"  \S+ +pass  \(\d+\.\d{3}s\)", line) for line in check_lines)


def test_main_returns_codes_without_exiting():
    assert main(["report", "--list-checks"]) == 0
    assert main(["verify", "ellipsoid", "--p", "1", "--q", "2", "--r", "2"]) == 2
    assert main(["no-such-command"]) == 2


def test_internal_error_exit_3(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("simulated\nfault")

    monkeypatch.setattr("hyperconn.cli.run_verification", broken)
    assert main(["verify", "ellipsoid", "--p", "2", "--q", "2", "--r", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: simulated fault\n"


def test_sweep_bound_usage_error():
    parser = build_parser()
    args = parser.parse_args(["sweep", "ellipsoid", "--max", "2"])
    args.max = 1  # bypass the parser to hit the bound check
    with pytest.raises(UsageError):
        cmd_sweep(args)


class _Stop(Exception):
    pass


def _stop(*args):
    raise _Stop


def test_sweep_max_above_limit_exit_2(monkeypatch, capsys):
    # rejected before any triple is generated or verified
    monkeypatch.setattr(cli, "run_verification", _stop)
    assert main(["sweep", "ellipsoid", "--max", str(MAX_SWEEP + 1)]) == 2
    assert capsys.readouterr().err == f"error: --max must be <= {MAX_SWEEP}\n"
    args = build_parser().parse_args(["sweep", "ellipsoid", "--max", str(MAX_SWEEP)])
    with pytest.raises(_Stop):  # the limit itself passes validation
        cmd_sweep(args)


def test_sweep_parallel_clamped_to_triples_and_cpus(monkeypatch, capsys):
    pools = []

    class SerialPool:
        """Records max_workers and maps in this process; starts no worker."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(
        cli, "run_verification", lambda ex, p, q, r: VerificationReport(ex, p, q, r, (), (), ())
    )
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert main(["sweep", "sphere", "--max", "2", "--parallel", "1000000"]) == 0
    assert main(["sweep", "sphere", "--max", "2", "--parallel", "3"]) == 0
    assert pools == [4, 3]  # 8 triples, 4 CPUs
    assert main(["sweep", "sphere", "--max", "1", "--parallel", "1000000"]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert main(["sweep", "sphere", "--max", "2", "--parallel", "1000000"]) == 0
    assert pools == [4, 3]  # one triple, or an unknown CPU count, runs serially
    capsys.readouterr()


def test_cli_import_loads_neither_dataclasses_nor_the_process_pool():
    # dataclasses and the inspect, ast and dis it imports would cost every
    # start milliseconds, and only sweep --parallel needs the pool machinery.
    # -S leaves out the site hooks of the environment, which are not hyperconn's.
    unwanted = ("dataclasses", "inspect", "concurrent.futures.process")
    code = f"import sys, hyperconn.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_verification_report_failure_flag():
    report = run_verification("ellipsoid", 2, 2, 2)
    assert not report.failed
    assert report.counts()["pass"] == len(report.checks)
    failing = VerificationReport(
        "ellipsoid", 2, 2, 2, (CheckResult("idempotent", "fail", "x", 0.0),), (), ()
    )
    assert failing.counts() == {"pass": 0, "fail": 1, "discrepancy": 0}
    # discrepancies alone never fail a run
    soft = VerificationReport(
        "sphere", 1, 1, 1, (CheckResult("d3M-sign", "discrepancy", "sign", 0.0),), (), ()
    )
    assert not soft.failed

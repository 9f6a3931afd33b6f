"""Command-line front end: build an example family, verify its identities.

Subcommands: verify (one parameter triple, full check suite), sweep (all
triples up to a bound of at most MAX_SWEEP, on at most one worker process
per triple and per CPU), eval (ad-hoc normal-form queries), and report
--list-checks (the check-name catalog). Reports are emitted as aligned
text or JSON; both are byte-deterministic unless --timings is requested.
Output is always plain text, so NO_COLOR needs no special handling. The
argument parser is built once per process, at the first main() call, and
reused, so repeated in-process calls give byte-identical results.

Each example's checks are one ordered table of (name, check) rows; the
sphere's golden rows run only at (1, 1, 1), and report --list-checks reads
its names from these tables. Each identity that holds by construction
(Phi^2 = Phi, Phi*k = 0, P^2 = I, delta(f) = 0) is computed once, in the
build or at a derivation's first delta(f), and its row reads that result.
A verify forms each pair's curvature report and each A_d(dFvec) once, after
the build and before any row runs; the rows and the curvature block read
them, and each delta(Phi) through conn.connection_matrix. --timings times
each row alone, so its seconds exclude that shared work.

Exit codes: 0 when no check fails (discrepancies allowed), 1 when any
check fails, 2 for usage or parse errors, 3 for an internal error (any
other exception, reported as one "internal error: ..." line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import product
from math import comb

from . import catalog, conn
from .conn import Record, connection_apply, connection_matrix, curvature_report, deviation_report
from .deriv import bracket
from .polycore import MAX_EXPONENT, ParseError, _coefficient_bits, _lowest_terms, parse
from .quotient import QuotientRing

_GOLDEN_TRIPLE = (1, 1, 1)
_BASE_POINT = (1, 0, 0)
_PAIRS = ((0, 1, "12"), (0, 2, "13"), (1, 2, "23"))
# Largest sweep --max: at most 20^3 = 8,000 triples, at about 0.06 s each.
MAX_SWEEP = 20
# Largest normal-form work eval starts. The quotient of p by f has degree
# at most d = deg p - deg f in the v variables that occur in p or f, so at
# most C(d+v, v) terms, and each touches every term of f: C(d+v, v)*|f|
# bounds the work before it runs. Measured on a 2-core x86-64 host with
# Python 3.11, eval runs near the limit with small coefficients take 0.08 to
# 0.11 s, start-up included (x^72 mod x^2+y^2+z^2-1, x^58 mod (x+y+z)^2-1).
# x^72 is accepted and x^73 is refused; x^1000 mod x^2-1 (v = 1) is accepted.
# Each reduction step multiplies integer numerators by those of -f/lc over
# the lcm of its denominators, and each step raises a denominator by that
# lcm, so with b the bit length of f's largest coefficient integer the
# coefficients grow to about d*b bits, and an update costs about
# 1 + (d*b >> 11) updates on small ones; the bound counts each update that
# many times. With coefficients of +-1 (b = 1) the weight is 1 up to
# d = 2,047. The weight was fitted on one-term dividends (x^e mod
# N*x^2+y^2+z^2-1 with N of 10 to 4,000 digits), and a many-term dividend
# costs more: (x+y+z)^15 mod N*x^2+y^2+z^2-1 with a 4,000-digit N is
# accepted and runs 2.3 s before it exits 2 at the print limit.
MAX_EVAL_WORK = 250_000


class UsageError(ValueError):
    """Bad command-line input that should exit with status 2."""


class CheckResult(Record):
    __slots__ = ("name", "status", "witness", "seconds")  # status: pass, fail or discrepancy

    def to_json(self, include_timings: bool = False) -> dict:
        data = {"name": self.name, "status": self.status, "witness": self.witness}
        if include_timings:
            data["seconds"] = round(self.seconds, 6)
        return data


class VerificationReport(Record):
    """One example at one parameter triple: check rows plus curvature data."""

    # checks: CheckResult rows; curvature: a report's to_json per pair; notes: strings
    __slots__ = ("example", "p", "q", "r", "checks", "curvature", "notes")

    def counts(self) -> dict:
        tally = {"pass": 0, "fail": 0, "discrepancy": 0}
        for check in self.checks:
            tally[check.status] += 1
        return tally

    @property
    def failed(self) -> bool:
        return any(check.status == "fail" for check in self.checks)

    def to_json(self, include_timings: bool = False) -> dict:
        return {
            "example": self.example,
            "parameters": {"p": self.p, "q": self.q, "r": self.r},
            "checks": [c.to_json(include_timings) for c in self.checks],
            "curvature": list(self.curvature),
            "notes": list(self.notes),
            "summary": self.counts(),
        }


def _zero_status(value, pass_witness: str = "0"):
    # value is a RingElement, MatrixA, or Derivation difference
    if value.is_zero:
        return "pass", pass_witness
    return "fail", str(value)


def _vector_status(vec):
    if all(v.is_zero for v in vec):
        return "pass", "0"
    return "fail", conn._vector_text(vec)


def _match_status(computed, expected):
    diff = computed - expected
    if diff.is_zero:
        return "pass", str(computed)
    return "fail", f"difference {diff}"


def _deviation_status(presentation, expected_rank: int):
    report = deviation_report(presentation, _BASE_POINT)
    witness = f"ambient {report.ambient}, rank {report.rank}, deviation {report.deviation}"
    return ("pass" if report.rank == expected_rank else "fail"), witness


class _Context:
    """One example at one triple, with the work its rows share formed up front.

    After the build, each pair's curvature report (curvature, keyed by (i, j)
    in _PAIRS order) and, when the presentation has a kernel generator k, each
    A_{d_i}(k) (applied, which the formone and nested rows share) are formed
    once, before any row runs. Each delta(Phi) is kept in the presentation's
    own memo (conn.connection_matrix).
    """

    def __init__(self, example: str, p: int, q: int, r: int):
        self.example = example
        self.family = _FAMILIES[example]
        self.params = (p, q, r)
        self.ex = getattr(catalog, self.family.build)(p, q, r)
        self.pres = self.ex.presentation
        d, label, k = self.ex.derivations, self.family.label, self.pres.kernel_generator
        self.curvature = {
            (i, j): curvature_report(self.pres, d[i], d[j], f"{label}{i + 1}", f"{label}{j + 1}")
            for i, j, _ in _PAIRS
        }
        self.applied = () if k is None else tuple(connection_apply(self.pres, e, k) for e in d)

    def expected(self, check_id: str):
        return catalog.reference_expected(self.example, check_id, *self.params)


def _per_index(name: str, check):
    """Rows for the three derivations; name has one {} for the 1-based index."""
    return tuple((name.format(i + 1), lambda ctx, i=i: check(ctx, i)) for i in range(3))


def _per_pair(prefix: str, check):
    """Rows prefix-12, prefix-13, prefix-23 for the three derivation pairs."""
    return tuple(
        (f"{prefix}-{tag}", lambda ctx, i=i, j=j: check(ctx, i, j)) for i, j, tag in _PAIRS
    )


def _tangency(ctx: _Context, i: int):
    return _zero_status(ctx.ex.derivations[i].modulus_image())


def _scalar_multiple_status(ctx: _Context, vector, check_id: str):
    scalar = ctx.expected(check_id)
    return _vector_status(tuple(a - scalar * v for a, v in zip(vector, ctx.ex.dFvec)))


def _formone(ctx: _Context, i: int):
    return _scalar_multiple_status(ctx, ctx.applied[i], f"formone-scalar-{i + 1}")


def _nested(ctx: _Context, first: int, second: int):
    outer = connection_apply(ctx.pres, ctx.ex.derivations[first], ctx.applied[second])
    return _scalar_multiple_status(ctx, outer, f"nested-{first + 1}{second + 1}-scalar")


def _bracket(ctx: _Context, i: int, j: int):
    # [d_i, d_j] is a multiple of the remaining derivation
    scalar = ctx.expected(f"bracket-scalar-{i + 1}{j + 1}")
    computed = bracket(ctx.ex.derivations[i], ctx.ex.derivations[j])
    expected = ctx.ex.derivations[3 - i - j] * scalar
    return _zero_status(computed - expected, str(computed))


def _nonflat(ctx: _Context):
    report = ctx.curvature[0, 1]
    return ("fail", "0") if report.flat else ("pass", str(report.induced))


_IDEMPOTENT_ROW = ("idempotent", lambda ctx: _zero_status(ctx.pres.defect))

_ELLIPSOID_ROWS = (
    _IDEMPOTENT_ROW,
    ("kernel-annihilation", lambda ctx: _vector_status(ctx.pres.kernel_image)),
    *_per_index("tangency-d{}", _tangency),
    *_per_index(
        "d{}M-golden",
        lambda ctx, i: _match_status(
            connection_matrix(ctx.pres, ctx.ex.derivations[i]), ctx.expected(f"d{i + 1}M")
        ),
    ),
    *_per_index("formone-{}", _formone),
    ("nested-12", lambda ctx: _nested(ctx, 0, 1)),
    ("nested-21", lambda ctx: _nested(ctx, 1, 0)),
    *_per_pair("bracket", _bracket),
    *_per_pair(
        "curvature-kernel",
        lambda ctx, i, j: _vector_status(
            ctx.curvature[i, j].commutator.mul_vector(ctx.ex.dFvec)
        ),
    ),
    *_per_pair("trace-image", lambda ctx, i, j: _zero_status(ctx.curvature[i, j].trace_image)),
    *_per_pair("trace-kernel", lambda ctx, i, j: _zero_status(ctx.curvature[i, j].trace_kernel)),
    ("nonflat-12", _nonflat),
    ("deviation", lambda ctx: _deviation_status(ctx.pres, 2)),
)


def _sphere_dm(ctx: _Context, i: int):
    # the presentation is Phi = I - M, so D(M) = -D(Phi)
    return -connection_matrix(ctx.pres, ctx.ex.derivations[i])


def _d3m_sign(ctx: _Context):
    printed = ctx.expected("d3M-printed")
    computed = _sphere_dm(ctx, 2)
    if (computed - printed).is_zero:
        return "pass", str(computed)
    if (computed + printed).is_zero:
        return "discrepancy", "computed D3(M) = -1 * reference display"
    return "fail", f"difference {computed - printed}"


def _sphere_trace(ctx: _Context, i: int, j: int):
    # Psi = I - Phi = M, so the trace over the image of M is the kernel trace
    computed = ctx.curvature[i, j].trace_kernel
    golden = ctx.expected(f"trace-{i + 1}{j + 1}-image")
    if (computed - golden).is_zero and not computed.is_zero:
        return "pass", str(computed)
    return "fail", f"computed {computed}, expected {golden}"


def _trace_normalization(ctx: _Context):
    relations = []
    for i, j, tag in _PAIRS:
        printed = ctx.expected(f"trace-{tag}-printed")
        computed = ctx.curvature[i, j].trace_kernel
        for factor in (1, -1, 2, -2):
            if (printed - computed * factor).is_zero:
                relations.append((tag, factor))
                break
        else:
            return "fail", f"no constant relation between traces for pair {tag}"
    if all(factor == 1 for _, factor in relations):
        return "pass", "reference traces match computed traces"
    body = "; ".join(
        f"reference trace = {factor} * computed trace for pair {tag}"
        for tag, factor in relations
    )
    return "discrepancy", body


_SPHERE_GOLDEN_ROWS = (
    ("d1M-golden", lambda ctx: _match_status(_sphere_dm(ctx, 0), ctx.expected("d1M"))),
    ("d2M-golden", lambda ctx: _match_status(_sphere_dm(ctx, 1), ctx.expected("d2M"))),
    ("d3M-sign", _d3m_sign),
    (
        "R12-golden",
        lambda ctx: _match_status(ctx.curvature[0, 1].commutator, ctx.expected("R12")),
    ),
    *_per_pair("trace-image", _sphere_trace),
    ("trace-normalization", _trace_normalization),
)

_SPHERE_ROWS = (
    # P^2 - (M + Phi) is P^2 - I, since M + Phi = M + (I - M) is the identity
    ("involution", lambda ctx: _zero_status(ctx.ex.square_defect)),
    _IDEMPOTENT_ROW,  # for Phi = I - M, Phi^2 - Phi is M^2 - M entry for entry
    *_per_index("tangency-D{}", _tangency),
    *_SPHERE_GOLDEN_ROWS,
    ("deviation", lambda ctx: _deviation_status(ctx.pres, 1)),
)


class _Family(Record):
    """One example: its builder, check table and report notes.

    build is the catalog builder's name, looked up when called, so a patched
    binding is used; label the derivation prefix in the curvature block; rows
    the (name, check) pairs in report order, check(ctx) -> (status, witness);
    golden_only the row names run only at _GOLDEN_TRIPLE, and golden_notes
    the notes added there."""

    __slots__ = ("build", "label", "rows", "notes", "golden_only", "golden_notes")


_FAMILIES = {
    "ellipsoid": _Family(
        "build_ellipsoid_cotangent",
        "d",
        _ELLIPSOID_ROWS,
        ("point checks evaluate at the on-surface point (1, 0, 0)",),
        frozenset(),
        (),
    ),
    "sphere": _Family(
        "build_sphere_line_bundle",
        "D",
        _SPHERE_ROWS,
        (
            "the line bundle is the kernel of the idempotent M and is presented "
            "by the complement Phi = I - M",
        ),
        frozenset(name for name, _ in _SPHERE_GOLDEN_ROWS),
        (
            "trace-image checks report the trace over the image of M itself "
            "(the complementary summand); over the line bundle the values negate",
            "d3M-sign and trace-normalization record constant-factor differences "
            "against the transcribed reference displays",
        ),
    ),
}

ELLIPSOID_CHECKS = tuple(name for name, _ in _ELLIPSOID_ROWS)
SPHERE_CHECKS = tuple(name for name, _ in _SPHERE_ROWS)


def run_verification(example: str, p: int, q: int, r: int) -> VerificationReport:
    """Build the example, run and time each row of its check table, and
    report the curvature of every derivation pair."""
    if example not in _FAMILIES:
        raise UsageError(f"unknown example {example!r}")
    ctx = _Context(example, p, q, r)
    family = ctx.family
    golden = (p, q, r) == _GOLDEN_TRIPLE
    results = []
    for name, check in family.rows:
        if name in family.golden_only and not golden:
            continue
        start = time.perf_counter()
        status, witness = check(ctx)
        results.append(CheckResult(name, status, witness, time.perf_counter() - start))
    curvature = tuple(report.to_json() for report in ctx.curvature.values())
    notes = family.notes + (family.golden_notes if golden else ())
    return VerificationReport(example, p, q, r, tuple(results), curvature, notes)


def _require_parameters(example: str, p: int, q: int, r: int):
    minimum = catalog.MINIMUM[example]
    if min(p, q, r) < minimum:
        raise UsageError(
            f"example {example!r} requires p, q, r >= {minimum}, got {(p, q, r)}"
        )
    if max(p, q, r) > MAX_EXPONENT:
        # evaluating x^p at a point takes p products; the parser's cap bounds them
        raise UsageError(f"p, q, r must be <= {MAX_EXPONENT}, got {(p, q, r)}")


def _require_parallel(n: int):
    if n < 1:
        raise UsageError("--parallel must be a positive integer")


def _tally_text(tally: dict) -> str:
    return f"{tally['pass']} pass, {tally['fail']} fail, {tally['discrepancy']} discrepancy"


def _render_verification(report: VerificationReport, timings: bool) -> str:
    lines = [f"example: {report.example} (p={report.p}, q={report.q}, r={report.r})"]
    width = max(len(c.name) for c in report.checks)
    for check in report.checks:
        line = f"  {check.name.ljust(width)}  {check.status}"
        if timings:
            line += f"  ({check.seconds:.3f}s)"
        lines.append(line)
        if check.status != "pass":
            lines.append(f"      witness: {check.witness}")
    lines.append("curvature:")
    for entry in report.curvature:
        pair = ", ".join(entry["pair"])
        lines.append(
            f"  ({pair}): trace_image = {entry['trace_image']}, "
            f"trace_kernel = {entry['trace_kernel']}, flat = {str(entry['flat']).lower()}"
        )
    if report.notes:
        lines.append("notes:")
        for note in report.notes:
            lines.append(f"  - {note}")
    lines.append(f"summary: {_tally_text(report.counts())}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    _require_parameters(args.example, args.p, args.q, args.r)
    _require_parallel(args.parallel)
    report = run_verification(args.example, args.p, args.q, args.r)
    if args.json:
        sys.stdout.write(json.dumps(report.to_json(args.timings), indent=2) + "\n")
    else:
        sys.stdout.write(_render_verification(report, args.timings))
    return 1 if report.failed else 0


def _sweep_worker(task) -> dict:
    # top level so process pools can pickle it
    example, p, q, r, timings = task
    return run_verification(example, p, q, r).to_json(include_timings=timings)


def cmd_sweep(args) -> int:
    example = args.example
    minimum = catalog.MINIMUM[example]
    if args.max < minimum:
        raise UsageError(f"--max must be >= {minimum} for example {example!r}")
    if args.max > MAX_SWEEP:
        raise UsageError(f"--max must be <= {MAX_SWEEP}")
    _require_parallel(args.parallel)
    triples = product(range(minimum, args.max + 1), repeat=3)
    tasks = [(example, p, q, r, args.timings) for p, q, r in triples]
    # the pool starts every worker up front, so never more than can run at once
    workers = min(args.parallel, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool machinery is a sizeable share of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_sweep_worker, tasks))
    else:
        reports = [_sweep_worker(task) for task in tasks]
    summary = {"pass": 0, "fail": 0, "discrepancy": 0}
    for report in reports:
        for key in summary:
            summary[key] += report["summary"][key]
    failed = summary["fail"] > 0
    if args.json:
        payload = {
            "example": example,
            "max": args.max,
            "reports": reports,
            "summary": summary,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        lines = [f"sweep {example} max={args.max} ({len(reports)} triples)"]
        for report in reports:
            params = report["parameters"]
            lines.append(
                f"  ({params['p']},{params['q']},{params['r']}): "
                f"{_tally_text(report['summary'])}"
            )
        lines.append(f"summary: {_tally_text(summary)}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 1 if failed else 0


def cmd_eval(args) -> int:
    tokens = args.tokens
    if len(tokens) == 3 and tokens[1] == "mod":
        expr_text, modulus_text = tokens[0], tokens[2]
    else:
        raise UsageError('eval expects: EXPR mod MODULUS (e.g. eval "x^2" mod "x^2-1")')
    try:
        modulus = parse(modulus_text)
        expression = parse(expr_text)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    try:
        ring = QuotientRing(modulus)
    except ValueError as err:
        raise UsageError(str(err)) from err
    d = expression.degree() - modulus.degree()
    monomials = [*expression.terms, *modulus.terms]
    v = sum(1 for k in range(modulus.arity) if any(m[k] for m in monomials))
    if d >= 0 and (comb(d + v, v) * len(modulus.terms)
                   * (1 + (d * _coefficient_bits(modulus) >> 11)) > MAX_EVAL_WORK):
        raise UsageError(
            f"reducing a degree {expression.degree()} expression modulo a degree "
            f"{modulus.degree()} modulus may take more than {MAX_EVAL_WORK} term updates, "
            "weighted by coefficient size"
        )
    result = ring.element(expression).rep
    try:
        text = str(result)
    except ValueError:
        # printing an int of more digits than this limit raises ValueError;
        # any other ValueError is a bug and stays one
        limit = sys.get_int_max_str_digits()
        printed = (k for c in result.terms.values() for n in (c._a, c._b)
                   for k in _lowest_terms(n, c._d))
        if not limit or max(map(abs, printed)) < 10**limit:
            raise
        raise UsageError(f"the result has a coefficient of more than {limit} digits, "
                         "the interpreter's limit for printing an integer") from None
    sys.stdout.write(text + "\n")
    return 0


def cmd_report(args) -> int:
    if not args.list_checks:
        raise UsageError("report requires --list-checks")
    catalog_map = {"ellipsoid": list(ELLIPSOID_CHECKS), "sphere": list(SPHERE_CHECKS)}
    if args.json:
        sys.stdout.write(json.dumps(catalog_map, indent=2) + "\n")
    else:
        lines = []
        for example, names in catalog_map.items():
            lines.append(f"{example}:")
            lines.extend(f"  {name}" for name in names)
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperconn",
        description="verify connection and curvature identities on hypersurface quotient rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the full check suite for one parameter triple")
    verify.add_argument("example", choices=list(_FAMILIES))
    verify.add_argument("--p", type=int, required=True)
    verify.add_argument("--q", type=int, required=True)
    verify.add_argument("--r", type=int, required=True)
    verify.add_argument("--json", action="store_true", help="emit a JSON report")
    verify.add_argument(
        "--timings", action="store_true", help="include per-check seconds (not byte-stable)"
    )
    verify.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="accepted for interface symmetry; a single triple verifies serially",
    )
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="verify every triple with parameters up to a bound")
    sweep.add_argument("example", choices=list(_FAMILIES))
    sweep.add_argument("--max", type=int, required=True)
    sweep.add_argument("--json", action="store_true", help="emit a JSON report")
    sweep.add_argument(
        "--timings", action="store_true", help="include per-check seconds (not byte-stable)"
    )
    sweep.add_argument(
        "--parallel", type=int, default=1, metavar="N", help="worker processes for the sweep"
    )
    sweep.set_defaults(func=cmd_sweep)

    evaluate = sub.add_parser("eval", help="print the canonical form of EXPR mod MODULUS")
    evaluate.add_argument("tokens", nargs="+", metavar="EXPR mod MODULUS")
    evaluate.set_defaults(func=cmd_eval)

    report = sub.add_parser("report", help="describe the report contents")
    report.add_argument("--list-checks", action="store_true")
    report.add_argument("--json", action="store_true")
    report.set_defaults(func=cmd_report)

    return parser


def _guard_eval_operands(argv: list) -> list:
    """Put `--` after `eval` so an operand led by `-`, such as -x, is not read
    as an option; left alone when the command already holds -h, --help or --."""
    if argv[:1] == ["eval"] and not {"-h", "--help", "--"} & set(argv[1:]):
        return ["eval", "--", *argv[1:]]
    return argv


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was, and help and usage go to the
    # sys.stdout and sys.stderr of each call, so one parser serves every main
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_guard_eval_operands(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a bug, never to be mistaken for a failed check
        detail = " ".join(str(err).split())
        print(f"internal error: {type(err).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

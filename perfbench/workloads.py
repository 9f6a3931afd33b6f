"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Each workload generates, from the seed alone and during set-up, a fixed list
of operations (``ops``) that the worker runs round and round; the program
receives only these inputs. The first ``CYCLE`` operations form the traced
cycle.

Checks run on every operation, outside its timed region, and return None
when the output is right or a short reason when it is not. Checks that cost
too much to run on every operation (the sympy oracle of eval-power) run in
the parent process on a seeded sample, through ``deferred`` and
``check_deferred``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from itertools import product
from random import Random

ELLIPSOID_TRIPLES = tuple(product(range(2, 5), repeat=3))
SPHERE_TRIPLES = tuple(product(range(1, 3), repeat=3))

# Known tallies of a verify report: (pass, fail, discrepancy).
ELLIPSOID_TALLY = (27, 0, 0)
SPHERE_GOLDEN_TALLY = (12, 0, 2)  # (1, 1, 1) runs the golden branch
SPHERE_TALLY = (6, 0, 0)
SPHERE_GOLDEN_DISCREPANCIES = ("d3M-sign", "trace-normalization")

# Coefficients of eval-power's linear forms a*x+b*y+c*z: small Gaussian
# rationals, one kind per variable so that forms of one exponent cost alike.
LINEAR_COEFFICIENTS = (("1", "-1", "2", "-2"), ("1+i", "1-i", "-1+i", "-1-i"),
                       ("1/2", "-1/2", "1/2*i", "-1/2*i"))
EVAL_EXPONENTS = tuple(range(8, 21))
# Moduli x^a+y^b+z^c-1 (a, b, c in 2..5) plus one non-diagonal cubic, each as
# (sign, exponent vector) terms: 65 moduli, five per exponent. Modulus k goes
# with exponent 8 + k % 13, and cycle k // 13 holds one operation per
# exponent, so every run reduces the same mix of sizes whatever its seed.
EVAL_MODULI = tuple(
    (("", (a, 0, 0)), ("+", (0, b, 0)), ("+", (0, 0, c)), ("-", (0, 0, 0)))
    for a, b, c in product(range(2, 6), repeat=3)
) + ((("", (2, 1, 0)), ("+", (0, 2, 1)), ("+", (1, 0, 2)), ("-", (0, 0, 0))),)
# Outputs confirmed by sympy are drawn from the first cycle's operations with
# exponents up to this, so that the oracle stays under a second per sample.
SYMPY_MAX_EXPONENT = 12
SYMPY_SAMPLES = 2


def _cli_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _monomial_text(exps) -> str:
    parts = []
    for name, e in zip("xyz", exps):
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) or "1"


def grevlex_leading(monomials):
    """Leading exponent vector under grevlex with x > y > z."""
    return max(monomials, key=lambda e: (sum(e), tuple(-a for a in reversed(e))))


def printed_monomials(text: str):
    """Exponent vectors of the terms of a printed polynomial.

    Terms are split at signs outside parentheses (mixed Gaussian
    coefficients are parenthesised); variables never occur in coefficients.
    """
    terms, depth, start = [], 0, 0
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            if k > start:
                terms.append(text[start:k])
            start = k + 1
    terms.append(text[start:])
    monomials = []
    for term in terms:
        exps = [0, 0, 0]
        for name, power in re.findall(r"([xyz])(?:\^(\d+))?", term):
            exps["xyz".index(name)] += int(power or 1)
        monomials.append(tuple(exps))
    return monomials


class VerifySweep:
    """`hyperconn verify EX --p P --q Q --r R --json`, in full cycles of 35 triples."""

    name = "verify-sweep"
    CYCLE = len(ELLIPSOID_TRIPLES) + len(SPHERE_TRIPLES)

    def __init__(self, seed: int):
        from hyperconn import cli

        self.cli = cli
        self.ops = [("ellipsoid",) + t for t in ELLIPSOID_TRIPLES]
        self.ops += [("sphere",) + t for t in SPHERE_TRIPLES]
        Random(seed).shuffle(self.ops)

    def run(self, op):
        example, p, q, r = op
        return _cli_call(self.cli, ["verify", example, "--p", str(p), "--q", str(q),
                                    "--r", str(r), "--json"])

    @staticmethod
    def check(op, result):
        example, p, q, r = op
        code, out, _ = result
        if code != 0:
            return f"exit code {code}"
        report = json.loads(out)
        if (report["example"], report["parameters"]) != (example, {"p": p, "q": q, "r": r}):
            return "report is for another example"
        summary = report["summary"]
        tally = (summary["pass"], summary["fail"], summary["discrepancy"])
        golden = example == "sphere" and (p, q, r) == (1, 1, 1)
        if example == "ellipsoid":
            expected = ELLIPSOID_TALLY
        else:
            expected = SPHERE_GOLDEN_TALLY if golden else SPHERE_TALLY
        if tally != expected:
            return f"tally {tally}, expected {expected}"
        if len(report["checks"]) != sum(tally):
            return "summary does not count every check"
        if golden:
            names = tuple(c["name"] for c in report["checks"] if c["status"] == "discrepancy")
            if names != SPHERE_GOLDEN_DISCREPANCIES:
                return f"discrepancies {names}"
        return None

    def deferred(self, index, op, result):
        return None


class EvalPower:
    """`hyperconn eval "(a*x+b*y+c*z)^e" mod f` for seeded forms, exponents and moduli."""

    name = "eval-power"
    CYCLE = len(EVAL_EXPONENTS)

    def __init__(self, seed: int):
        from hyperconn import cli

        self.cli = cli
        rng = Random(seed)
        groups = list(range(len(EVAL_MODULI) // self.CYCLE))
        rng.shuffle(groups)
        self.ops = []
        for group in groups:
            cycle = []
            for k in range(group * self.CYCLE, (group + 1) * self.CYCLE):
                modulus = EVAL_MODULI[k]
                e = EVAL_EXPONENTS[k % self.CYCLE]
                coeffs = [rng.choice(kind) for kind in LINEAR_COEFFICIENTS]
                form = "+".join(f"({c})*{v}" for c, v in zip(coeffs, "xyz"))
                text = "".join(sign + _monomial_text(exps) for sign, exps in modulus)
                cycle.append((f"({form})^{e}", e, text, tuple(exps for _, exps in modulus)))
            rng.shuffle(cycle)
            self.ops += cycle
        small = [k for k, op in enumerate(self.ops[:self.CYCLE]) if op[1] <= SYMPY_MAX_EXPONENT]
        self.sampled = set(rng.sample(small, SYMPY_SAMPLES))

    def run(self, op):
        return _cli_call(self.cli, ["eval", op[0], "mod", op[2]])

    @staticmethod
    def check(op, result):
        """The remainder has no monomial divisible by the leading monomial of f."""
        code, out, _ = result
        if code != 0:
            return f"exit code {code}"
        if not out.endswith("\n") or "\n" in out[:-1] or not out.strip():
            return "expected one output line"
        lead = grevlex_leading(op[3])
        for exps in printed_monomials(out.strip()):
            if all(a >= b for a, b in zip(exps, lead)):
                return f"remainder term {_monomial_text(exps)} is divisible by the leading monomial"
        return None

    def deferred(self, index, op, result):
        if index in self.sampled:
            return {"expression": op[0], "modulus": op[2], "output": result[1].strip()}
        return None


def check_deferred(record) -> str | None:
    """Confirm one eval-power output with sympy's grevlex reduction."""
    import sympy

    x, y, z = sympy.symbols("x y z")
    names = {"x": x, "y": y, "z": z, "i": sympy.I}

    def parse(text):
        return sympy.sympify(text.replace("^", "**"), locals=names)

    f = parse(record["modulus"])
    _, remainder = sympy.reduced(sympy.expand(parse(record["expression"])), [f], x, y, z,
                                 order="grevlex", extension=True)
    if sympy.expand(remainder - parse(record["output"])) != 0:
        return f"sympy disagrees on {record['expression']} mod {record['modulus']}"
    return None


class DenseShifted:
    """Shifted-connection curvature with dense module-preserving potentials.

    Each operation forms three potentials Phi*X*Phi from seeded raw X, calls
    modified_curvature (which checks its own identity exactly), then
    curvature_report for the same derivation pair. Every raw X entry is one
    seeded coefficient times a monomial from a fixed pattern, so operations
    on one presentation and pair cost alike whatever the seed.
    """

    name = "dense-shifted"
    # (example family, parameters, monomials of the raw X entries)
    PRESENTATIONS = (
        ("ellipsoid", (2, 2, 2), ((0, 0, 0),)),
        ("sphere", (1, 1, 1), ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))),
        ("sphere", (1, 1, 2), ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))),
    )
    PAIRS = ((0, 1), (0, 2), (1, 2))
    CYCLE = len(PRESENTATIONS) * len(PAIRS)
    CYCLES = 6

    def __init__(self, seed: int):
        from hyperconn import build_ellipsoid_cotangent, build_sphere_line_bundle, bracket, conn

        self.conn = conn
        build = {"ellipsoid": build_ellipsoid_cotangent, "sphere": build_sphere_line_bundle}
        examples = []
        for kind, params, monomials in self.PRESENTATIONS:
            ex = build[kind](*params)
            brackets = {pair: bracket(ex.derivations[pair[0]], ex.derivations[pair[1]])
                        for pair in self.PAIRS}
            examples.append((ex, brackets, monomials))
        rng = Random(seed)
        self.ops = []
        for _ in range(self.CYCLES):
            cycle = [(example, pair, tuple(self._raw(rng, example, k) for k in range(3)))
                     for example in examples for pair in self.PAIRS]
            rng.shuffle(cycle)
            self.ops += cycle

    @staticmethod
    def _raw(rng, example, k):
        from hyperconn import MatrixA, Polynomial

        ex, _, monomials = example
        n = ex.presentation.n
        rows = [[Polynomial(("x", "y", "z"),
                            {monomials[(i + j + k) % len(monomials)]: rng.choice((1, -1, 2, -2, 3))})
                 for j in range(n)] for i in range(n)]
        return MatrixA.from_rows(ex.ring, rows)

    def run(self, op):
        (ex, brackets, _), (i, j), raws = op
        pres = ex.presentation
        phi = pres.phi
        delta, eta = ex.derivations[i], ex.derivations[j]
        potentials = [phi * x * phi for x in raws]
        # looked up on the module at call time, so the traced run sees its wrappers
        direct = self.conn.modified_curvature(pres, delta, eta, brackets[(i, j)], *potentials)
        report = self.conn.curvature_report(pres, delta, eta, f"d{i + 1}", f"d{j + 1}")
        return direct, report

    @staticmethod
    def check(op, result):
        direct, report = result
        n = op[0][0].presentation.n
        if (direct.rows, direct.cols) != (n, n) or report.commutator.rows != n:
            return f"curvature is {direct.rows}x{direct.cols}, expected {n}x{n}"
        return None

    def deferred(self, index, op, result):
        return None


WORKLOADS = {w.name: w for w in (VerifySweep, EvalPower, DenseShifted)}

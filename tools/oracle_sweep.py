"""Check printed curvature blocks against an independent sympy rebuild.

Usage (from the repository root):

    PYTHONPATH=src python3 -m hyperconn sweep ellipsoid --max 4 --json > ellipsoid.json
    python3 tools/oracle_sweep.py ellipsoid.json [MORE.json ...]

Each file holds one ``verify --json`` or ``sweep --json`` report; "-" reads
standard input. For every verify report the tool rebuilds the example from
its definition in sympy, with nothing of hyperconn:

- ellipsoid (p, q, r): f = x^p + y^q + z^r - 1, Phi = I - grad(f)*E^T with
  E = (x/p, y/q, z/r), and the Koszul fields f_j*d/dx_i - f_i*d/dx_j, i < j;
- sphere (p, q, r): f = x^(2p) + y^(2q) + z^(2r) - 1, the involution
  P = [[x^p, y^q + i*z^r], [y^q - i*z^r, -x^p]], Phi = I - (P + I)/2, and
  the Koszul fields scaled by 1/2, 1/2 and -1/2.

For each derivation pair (i, j) it forms C = [d_i(Phi), d_j(Phi)] and reduces
by {f}, a Groebner basis, under grevlex with x > y > z over QQ or QQ(i).
Remainders by a Groebner basis are unique, so each printed value must equal
the oracle's. The tool compares every commutator entry, tr(Phi*C) and
tr((I - Phi)*C) with the printed traces, Phi*C = 0 with the printed flat
bit, and the ellipsoid's nonflat-12 witness with Phi*C of the first pair.
It prints one line per mismatch, then a summary line. Exit status: 0 when
nothing mismatches, 1 when something does, 2 for unreadable input.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import sympy as sp

SYMS = X, Y, Z = sp.symbols("x y z")
_NAMES = {"x": X, "y": Y, "z": Z, "i": sp.I}
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _koszul(f):
    grad = [sp.diff(f, s) for s in SYMS]
    fields = []
    for i, j in _PAIRS:
        images = [sp.Integer(0)] * 3
        images[i], images[j] = grad[j], -grad[i]
        fields.append(images)
    return fields


def rebuild(example: str, p: int, q: int, r: int):
    """Phi, the three derivations' images and the Groebner basis {f} of one example."""
    if example == "ellipsoid":
        f = X**p + Y**q + Z**r - 1
        grad = sp.Matrix([sp.diff(f, s) for s in SYMS])
        euler = sp.Matrix([X / p, Y / q, Z / r])
        phi = sp.eye(3) - grad * euler.T
        fields = _koszul(f)
        domain = sp.QQ
    elif example == "sphere":
        f = X ** (2 * p) + Y ** (2 * q) + Z ** (2 * r) - 1
        involution = sp.Matrix([[X**p, Y**q + sp.I * Z**r], [Y**q - sp.I * Z**r, -X**p]])
        phi = sp.eye(2) - (involution + sp.eye(2)) / 2
        scales = (sp.Rational(1, 2), sp.Rational(1, 2), sp.Rational(-1, 2))
        fields = [[s * v for v in images] for s, images in zip(scales, _koszul(f))]
        domain = sp.QQ_I
    else:
        raise ValueError(f"unknown example {example!r}")
    basis = sp.groebner([f], *SYMS, order="grevlex", domain=domain)
    return phi.applyfunc(sp.expand), fields, basis


def _parse(text: str):
    return sp.parse_expr(text.replace("^", "**"), local_dict=_NAMES)


def _witness_entries(text: str) -> list[list[str]]:
    """The entries of a printed matrix "[[a, b], [c, d]]"."""
    return [row.split(", ") for row in text[2:-2].split("], [")]


def check_report(report: dict) -> tuple[list[str], Counter]:
    """The mismatches of one verify report against the oracle, and how many
    values of each kind were compared."""
    example = report["example"]
    p, q, r = (report["parameters"][k] for k in "pqr")
    phi, fields, basis = rebuild(example, p, q, r)
    n = phi.rows
    psi = sp.eye(n) - phi

    def nf(e):
        return basis.reduce(sp.expand(e))[1]

    def derive(images, e):
        return sum(v * sp.diff(e, s) for v, s in zip(images, SYMS))

    dphi = [phi.applyfunc(lambda e, images=images: derive(images, e)) for images in fields]
    where = f"{example} {(p, q, r)}"
    mismatches: list[str] = []
    compared: Counter = Counter()

    def compare(kind: str, label: str, printed: str, value):
        compared[kind] += 1
        if sp.expand(_parse(printed) - value) != 0:
            mismatches.append(f"{where} {label}: printed {printed}, oracle {value}")

    label = "d" if example == "ellipsoid" else "D"
    for (i, j), block in zip(_PAIRS, report["curvature"], strict=True):
        tag = f"{i + 1}{j + 1}"
        if block["pair"] != [f"{label}{i + 1}", f"{label}{j + 1}"]:
            mismatches.append(f"{where} pair {tag}: printed as {block['pair']}")
        c = (dphi[i] * dphi[j] - dphi[j] * dphi[i]).applyfunc(nf)
        for a in range(n):
            for b in range(n):
                compare("commutator entries", f"commutator-{tag}[{a}][{b}]",
                        block["commutator"][a][b], c[a, b])
        compare("traces", f"trace-image-{tag}", block["trace_image"], nf((phi * c).trace()))
        compare("traces", f"trace-kernel-{tag}", block["trace_kernel"], nf((psi * c).trace()))
        induced = (phi * c).applyfunc(nf)
        flat = all(e == 0 for e in induced)  # remainders are expanded, so 0 is literal
        compared["flat bits"] += 1
        if block["flat"] != flat:
            mismatches.append(f"{where} flat-{tag}: printed {block['flat']}")
        if example == "ellipsoid" and tag == "12":
            (row,) = (check for check in report["checks"] if check["name"] == "nonflat-12")
            compared["nonflat-12 rows"] += 1
            if flat:
                if (row["status"], row["witness"]) != ("fail", "0"):
                    mismatches.append(f"{where} nonflat-12: printed {row['status']}, oracle flat")
            elif row["status"] != "pass":
                mismatches.append(f"{where} nonflat-12: printed {row['status']}, oracle not flat")
            else:
                entries = _witness_entries(row["witness"])
                for a in range(n):
                    for b in range(n):
                        compare("witness entries", f"nonflat-12[{a}][{b}]",
                                entries[a][b], induced[a, b])
    return mismatches, compared


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else list(argv)
    if not paths:
        print("usage: oracle_sweep.py REPORT.json [REPORT.json ...]", file=sys.stderr)
        return 2
    mismatches: list[str] = []
    compared: Counter = Counter()
    reports = 0
    for path in paths:
        try:
            if path == "-":
                document = json.load(sys.stdin)
            else:
                with open(path, encoding="utf-8") as handle:
                    document = json.load(handle)
            for report in document.get("reports", [document]):  # sweep or verify
                found, counts = check_report(report)
                mismatches += found
                compared += counts
                reports += 1
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            print(f"error: {path}: {exc!r}", file=sys.stderr)
            return 2
    for line in mismatches:
        print(line)
    kinds = ", ".join(f"{count} {kind}" for kind, count in sorted(compared.items()))
    print(f"{reports} reports: {kinds}; {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

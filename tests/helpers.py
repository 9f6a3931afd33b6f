"""Shared random generators, a CLI runner and a call recorder for the test suite.

Every test owns its seed; these helpers only consume the Random instance
they are handed, so failures reproduce exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from functools import cache
from itertools import islice, product
from pathlib import Path
from random import Random

from hyperconn import Derivation, GaussianRational, MatrixA, Polynomial, QuotientRing, parse

NAMES = ("x", "y", "z")
SRC = Path(__file__).resolve().parent.parent / "src"


@cache
def unit_sphere() -> QuotientRing:
    """The ring of the unit sphere x^2+y^2+z^2 = 1.

    It and rotations() are built on first use, not when a test module is
    imported, so a broken kernel fails the tests that use them by name
    instead of the collection of their whole module."""
    return QuotientRing(parse("x^2+y^2+z^2-1"))


@cache
def rotations() -> tuple[Derivation, Derivation, Derivation]:
    """The rotational fields y*d/dx - x*d/dy, z*d/dx - x*d/dz and
    z*d/dy - y*d/dz, tangent to the unit sphere."""
    ring = unit_sphere()
    return (Derivation(ring, ("y", "-x", "0")), Derivation(ring, ("z", "0", "-x")),
            Derivation(ring, ("0", "z", "-y")))


def child_env() -> dict:
    """The environment of a child process that imports this checkout."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(*args, timeout=None):
    """Run `python -m hyperconn` in a child process that imports this checkout."""
    return subprocess.run(
        [sys.executable, "-m", "hyperconn", *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=timeout,
    )


def record_calls(patch, owner, name: str) -> list[tuple]:
    """Replace owner.name through patch.setattr with a wrapper that appends
    each call's positional arguments to a list and forwards the call; return
    that list. patch is the monkeypatch fixture or a MonkeyPatch.context()."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch.setattr(owner, name, recorded)
    return calls


def prime_denominator_dividend() -> str:
    """Text of 240 terms of degree at most 10 whose coefficients
    (k + (k mod 5)*i)/p have the first 240 primes p as their denominators."""
    primes = (n for n in range(2, 2000) if all(n % k for k in range(2, int(n**0.5) + 1)))
    monomials = [m for m in product(range(11), repeat=3) if sum(m) <= 10]
    terms = []
    for k, (p, m) in enumerate(zip(islice(primes, 240), monomials), 1):
        powers = "".join(f"*{v}^{e}" if e > 1 else f"*{v}" for v, e in zip("xyz", m) if e)
        terms.append(f"({k}+{k % 5}*i)/{p}{powers}")
    return "+".join(terms)


def random_fraction(rng: Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def random_gaussian(rng: Random, span: int = 6) -> GaussianRational:
    if rng.random() < 0.5:
        return GaussianRational(random_fraction(rng, span))
    return GaussianRational(random_fraction(rng, span), random_fraction(rng, span))


def nonzero_gaussian(rng: Random, span: int = 6) -> GaussianRational:
    while True:
        value = random_gaussian(rng, span)
        if not value.is_zero:
            return value


def random_polynomial(
    rng: Random, names=NAMES, max_degree: int = 3, max_terms: int = 4
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in names)
        terms[exps] = random_gaussian(rng)
    return Polynomial(names, terms)


def nonzero_polynomial(rng: Random, names=NAMES, max_degree: int = 3) -> Polynomial:
    while True:
        p = random_polynomial(rng, names, max_degree)
        if not p.is_zero:
            return p


def pairwise_mul(p, q):
    """Reference product: one GaussianRational product and sum per term pair.

    This is the loop Polynomial.__mul__ ran before it accumulated integer
    numerators. It never calls Polynomial.__mul__, so the products and sums
    of products that the library forms can be checked against it.
    """
    result = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            c = c1 * c2
            acc = result.get(m)
            if acc is None:
                result[m] = c
            else:
                s = acc + c
                if s:
                    result[m] = s
                else:
                    del result[m]
    return Polynomial(p.names, result)


def random_element(rng: Random, ring: QuotientRing, max_degree: int = 3, max_terms: int = 4):
    return ring.element(random_polynomial(rng, ring.names, max_degree, max_terms))


def random_matrix(
    rng: Random, ring: QuotientRing, n: int, max_degree: int = 2, max_terms: int = 2
) -> MatrixA:
    rows = [
        [random_polynomial(rng, ring.names, max_degree, max_terms) for _ in range(n)]
        for _ in range(n)
    ]
    return MatrixA.from_rows(ring, rows)


def random_tangent(
    rng: Random, ring: QuotientRing, generators, max_degree: int = 2, max_terms: int = 2
) -> Derivation:
    # A-linear combinations of tangent derivations stay tangent
    total = generators[0] * random_element(rng, ring, max_degree, max_terms)
    for d in generators[1:]:
        total = total + d * random_element(rng, ring, max_degree, max_terms)
    return total

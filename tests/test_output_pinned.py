"""Pinned CLI output: the SHA-256 of stdout for representative invocations.

The digests fix the exact bytes of default text and JSON output, so a
refactor of the report code cannot change what users see.
"""

from __future__ import annotations

import hashlib
from itertools import product

import pytest

from helpers import prime_denominator_dividend, run_main


PINNED = [
    (
        ["sweep", "ellipsoid", "--max", "3", "--json"],
        "77688616c6d0cf440ce2c022e9d7126824021ab4d2f19bcb657cb1693b1a1d39",
    ),
    (
        ["sweep", "sphere", "--max", "2", "--json"],
        "9a26986e60c0ff4de32e7828fc6e86ac992c8a63dfbd96b0f19fa6cd866c03a5",
    ),
    (
        ["verify", "sphere", "--p", "1", "--q", "1", "--r", "1"],
        "db7fdb5124dec6349b30680e83259f992bea98ab533fac10c5eed88b52b0d23a",
    ),
    (
        ["verify", "ellipsoid", "--p", "2", "--q", "3", "--r", "4"],
        "2c17a9eccb81327e1b07afb70a07641ee14c6a9636cfe01a6f19dd27d2bda69c",
    ),
    (
        ["verify", "ellipsoid", "--p", "5", "--q", "4", "--r", "3", "--json"],
        "066b20264580d200b546c5035ce78bde102b2e766ea72681fedd1619ed8f0321",
    ),
    (
        ["sweep", "sphere", "--max", "3", "--json"],
        "98c46647e5d3cfa31ee6e667534de4c0ac7c30ef5da99d2a40eefe9b39fe2272",
    ),
    (
        ["report", "--list-checks"],
        "8d4d658d477568c5e638569ea3d351c94e6422aa8948ed14a28cb2ea276a2a93",
    ),
    (
        ["report", "--list-checks", "--json"],
        "ef649c10a8e1e956f12d63efa64b7a3a1ea5b9df551ce883ec67655a570fc2ac",
    ),
    (
        ["eval", "(x+y+z)^24", "mod", "x^2+y^2+z^2-1"],
        "16d82122bf0042c313568e8589a9d8a24cca83f04cca71f7f3bdb30c0e177191",
    ),
    (
        ["eval", "((1+i)*x-1/2*y+2*z)^15", "mod", "x^2*y+y^2*z+x*z^2-1"],
        "765205009dccd5981e179f4ae9f38e559800a99b911cfac37471c2fe329ca34f",
    ),
    (
        ["eval", "(x-i*y+z/2)^18", "mod", "x^3+y^4+z^5-1"],
        "896aa591cb69b454403616aba185fa892e53547e3f7fc920ce34faa257e701fd",
    ),
    (
        # every coefficient shape: 3/2*i, (-1/3-i), (1-3/2*i), -i and i, 1 and
        # -3 beside a monomial, denominators 4, 7 and 9, and a constant term
        ["eval", "3/2*i*x^3+(-1/3-i)*y^3+5/7*z-i*x*y+x*z^2-2/5+4*y+y*z+i*y^2-3*z^2"
         "+(2/9+7/4*i)*x", "mod", "x^2+y^2+z^2-1"],
        "105404b080304cf3198c77945297e3525ef628f50425715d05c700371c3f9bad",
    ),
    # the leading coefficient is a unit other than 1
    (
        ["eval", "(x+y+z)^30", "mod", "i*x^2+y^2+z^2-1"],
        "aa92b6dc735386dfadca158b05c1088877d0b25b853881c320568293c0f9588f",
    ),
    # a leading coefficient that is no unit, over a Gaussian-integer -f/lc tail
    (
        ["eval", "(x+y+z)^30", "mod", "2*x^2+4*y^2+2*z^2-2"],
        "27d10120501da6b827dedeefcb072e8ea423f30ffa7df7ce43dfb521ad833771",
    ),
    # -f/lc has a denominator
    (
        ["eval", "(x+y+z)^30", "mod", "2*x^2+y^2+z^2-1"],
        "20972913b8d471ab04924edea3abaa4f6e70467ad204cdd20f3f802ccecb388a",
    ),
    # -f/lc has several denominators (2, 3 and 6)
    (
        ["eval", "(x+y+z)^30", "mod", "6*x^2+2*y^2+3*z^2-1"],
        "e1925a9bea32e3cfae95250957c6476ce188bf581e8f8d71fb142ac6cdb477e7",
    ),
    # a non-real leading coefficient that is no unit, under a dividend with
    # denominators
    (
        ["eval", "(x/3+i*y+z/2)^20", "mod", "(1+2*i)*x^2+y^2+z^2-1"],
        "5465aebe2876d5f26f1a4605f279cec2e92071f66fdc4c31013a90e33053bf91",
    ),
    # the dividend is over the product of 240 primes
    (
        ["eval", prime_denominator_dividend(), "mod", "x^2+y^2+z^2-1"],
        "35807c09673cf058b47a978b20e35549ac0eb4ea8e5ef59f89869a09740fad00",
    ),
]


def _test_id(argv) -> str:
    """The argv as one line, with an operand of over 200 characters shortened."""
    return " ".join(a if len(a) <= 200 else f"{a[:40]}...({len(a)} chars)" for a in argv)


@pytest.mark.parametrize("argv, digest", PINNED, ids=[_test_id(a) for a, _ in PINNED])
def test_output_digest(argv, digest):
    result = run_main(*argv)
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode("utf-8")).hexdigest() == digest


# Every triple of the benchmark's verify-sweep: the ellipsoid at {2,3,4}^3 and
# the sphere at {1,2}^3, in that order.
SWEEP_TRIPLES = [("ellipsoid", *t) for t in product(range(2, 5), repeat=3)] + [
    ("sphere", *t) for t in product(range(1, 3), repeat=3)
]

SWEEP_DIGESTS = [
    ([], "a8e74a55f534786a9f49c9099adea5ebf5dd924311f7fe1c447c38a62351aabc"),
    (["--json"], "e230f11810cf2624915430c5852ce25c852302f46d10016df29cb09f7aebab96"),
]


@pytest.mark.parametrize("extra, digest", SWEEP_DIGESTS, ids=["text", "json"])
def test_every_benchmark_triple_digest(extra, digest):
    """The sha256 of the concatenated verify output of all 35 triples."""
    sha = hashlib.sha256()
    for example, p, q, r in SWEEP_TRIPLES:
        result = run_main("verify", example, "--p", str(p), "--q", str(q), "--r", str(r), *extra)
        assert result.returncode == 0
        sha.update(result.stdout.encode("utf-8"))
    assert sha.hexdigest() == digest

"""Mutation probe: which one-line edits of src/hyperconn the test suite notices.

Usage (from anywhere):

    python3 tools/mutants.py

MUTANTS is a fixed list of edits (file, old text, new text, reason), each
aimed at a kernel or a check, and every run applies all of them. The
checkout (every file git lists, tracked or untracked but not ignored) is
copied to a temporary directory outside the repository and
``python -m pytest -x -q`` runs there unmutated first: if that copy does not
pass, no mutant can be judged, and the tool stops. Then each edit gets its
own copy with the old text replaced, at most two copies at a time, and one
line, in list order:

- killed: a test failed or a test module failed to import (pytest exit 1,
  or exit 2 with a collection error), and the first failing test or module
  is named;
- survived: every test passed, so no test notices the edit;
- stale: the old text is not in the file exactly once, so the entry no
  longer fits the code and should be rewritten or dropped;
- timeout: the run took longer than TIMEOUT_FACTOR times the unmutated
  copy's seconds, or TIMEOUT_FLOOR seconds if that is more (the unmutated
  copy itself fails after UNMUTATED_TIMEOUT seconds);
- error: pytest ended any other way (usage error, internal error, no tests),
  which says nothing about the edit.

A summary line follows. The tool is no test gate: a survivor costs a whole
suite run. Exit status 0 once every mutant has been run without an error or
a timeout, 1 if the unmutated copy fails or some mutant's run ends in an
error or a timeout, since neither says anything about the edit.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2  # suite copies run at once
UNMUTATED_TIMEOUT = 600  # seconds for the unmutated copy's suite
TIMEOUT_FACTOR, TIMEOUT_FLOOR = 5, 60  # a mutant copy's timeout, from the unmutated run
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)

_POLY, _QUOT, _DERIV = "src/hyperconn/polycore.py", "src/hyperconn/quotient.py", "src/hyperconn/deriv.py"
_CONN, _CLI = "src/hyperconn/conn.py", "src/hyperconn/cli.py"

MUTANTS = (
    # sign and cancellation in the sum-of-products and term-map kernels
    (_POLY, "                        if re or im:\n                            sums[m]",
     "                        if re:\n                            sums[m]",
     "_sum_of_products drops a Gaussian sum whose real part cancels"),
    (_POLY, "re = a1 * a2 - b1 * b2", "re = a1 * a2 + b1 * b2",
     "_sum_of_products takes i*i as +1"),
    (_POLY, "            if s:\n                result[m] = s",
     "            if s or True:\n                result[m] = s",
     "_add_terms keeps a cancelled sum as a zero term"),
    # the one-term product path
    (_POLY, "_gaussian(a * c - b * e, a * e + b * c, d * f) if b or e",
     "_gaussian(a * c - b * e, a * e - b * c, d * f) if b or e",
     "a one-term product's imaginary cross term takes the wrong sign"),
    (_POLY, "d * f) if b or e\n", "d * f) if b\n",
     "a one-term product takes the real-only shortcut when only its left factor is real"),
    (_POLY, "acc = _add_terms(acc, (a * b)._terms) if acc else (a * b)._terms",
     "acc = (a * b)._terms",
     "each one-term product replaces the running sum instead of joining it"),
    (_POLY, "acc = _add_terms(acc, (a * b)._terms) if acc else (a * b)._terms",
     "acc = _add_terms(acc, (a * b)._terms) if acc else "
     "(a._terms if b._terms == {(0, 0, 0): 1} else (a * b)._terms)",
     "a product by one adopts the other operand's own map as the running sum"),
    (_DERIV, "for index, image in enumerate(self.images) if image.rep",
     "for index, image in enumerate(self.images)",
     "_apply_rep forms a partial derivative for a zero image too"),
    # the reduction loop
    (_POLY, "return 1 << degree.bit_length()", "return 1 << (degree.bit_length() - 1)",
     "divide_remainder's heap-key base no larger than the degree"),
    (_POLY, "if not any(all(map(ge, e, lead)) for e in terms):",
     "if not all(all(map(ge, e, lead)) for e in terms):",
     "divide_remainder's nothing-divisible exit taken while some term reduces"),
    (_POLY, "{e: terms[e] for e in sorted(terms, key=_heap_key)}",
     "{e: terms[e] for e in terms}",
     "the nothing-divisible exit returns its terms in input order, not grevlex"),
    (_POLY, "if exps[vmax] >= emax and all(map(ge, exps, lead)):",
     "if exps[vmax] > emax and all(map(ge, exps, lead)):",
     "divide_remainder's pre-test turns away a monomial at the lead's exponent"),
    (_POLY, "quotient[t] = _gaussian(a * u + b * v, b * u - a * v, e)",
     "quotient[t] = _gaussian(a * u - b * v, b * u + a * v, e)",
     "a unit lc's quotient coefficient is multiplied by lc, not divided"),
    # the parse charges
    (_POLY, "self.pairs += pairs * (1 + (bits >> 20))", "self.pairs += pairs",
     "the parse budget ignores coefficient size"),
    (_POLY, 'self.spend(len(left.terms) * (len(right.terms) if value == "*" else 1), bits, pos)',
     "self.spend(len(left.terms), bits, pos)",
     "a product is charged one pair per left term"),
    (_POLY, "self.spend(min(t, value) * compositions, bits * bits >> 2, pos)",
     "self.spend(compositions, bits * bits >> 2, pos)",
     "a power is charged once per composition"),
    # the constant-factor skip and the carried delta(f)
    (_QUOT, "if any(len(t) < 2 and not any(next(iter(t), ())) for t in (a.terms, b.terms)):",
     "if any(len(t) < 2 for t in (a.terms, b.terms)):",
     "RingElement.__mul__ skips nf for any one-term factor, not only a constant"),
    (_DERIV, "if self._modulus_image is not None and self._modulus_image.is_zero:",
     "if self._modulus_image is not None:",
     "Derivation.__mul__ carries a nonzero delta(f) over to a multiple"),
    # the curvature report
    (_CONN, "flat = not any(p.phi._product_entries(c))", "flat = not any(c.entries)",
     "curvature_report reads flatness from C instead of Phi*C"),
    (_CONN, "if trace_image + trace_kernel != total or not total.is_zero:",
     "if trace_image + trace_kernel != total:",
     "curvature_report accepts a commutator with a nonzero trace"),
    (_CONN, "image = c.mul_vector(p.kernel_generator)",
     "image = c.mul_vector(p.kernel_generator)[:0]",
     "curvature_matrix skips its C*k check"),
    # the row statuses
    (_CLI, "    if value.is_zero:\n        return \"pass\", pass_witness",
     "    if value.is_zero or True:\n        return \"pass\", pass_witness",
     "_zero_status passes a nonzero value"),
    (_CLI, "if (computed - golden).is_zero and not computed.is_zero:",
     "if (computed - golden).is_zero:",
     "a sphere trace-image row passes a zero trace against a zero golden"),
    (_CLI, 'return ("pass" if report.rank == expected_rank else "fail"), witness',
     'return ("pass" if report.rank <= expected_rank else "fail"), witness',
     "the deviation row passes a rank below the expected one"),
    (_CLI, "* (1 + (d * _coefficient_bits(modulus) >> 11)) > MAX_EVAL_WORK):",
     "> MAX_EVAL_WORK):",
     "eval's work bound ignores the modulus' coefficient size"),
    # the shared work a verify forms before its rows
    (_CLI, "(i, j): curvature_report(self.pres, d[i], d[j],",
     "(i, j): curvature_report(self.pres, d[0], d[1],",
     "every curvature report is built from the first pair's derivations"),
    (_CLI, "tuple(connection_apply(self.pres, e, k) for e in d)",
     "tuple(connection_apply(self.pres, e, k) for e in reversed(d))",
     "the applied connections are built in reverse order"),
)


def _checkout_files() -> list[str]:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return [name for name in listed.split("\0") if name and (ROOT / name).is_file()]


def _suite(
    files: list[str], edit: tuple[str, str] | None = None, timeout: float | None = None
) -> tuple[int | None, str, float]:
    """(pytest exit code, None on a timeout; output; seconds) for one copy of
    the checkout, with edit = (path, text) written over one file, stopped
    after timeout seconds unless timeout is None."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in files:
            (copy / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, copy / name)
        if edit:
            (copy / edit[0]).write_text(edit[1], encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        # its own session, so a timeout stops the suite's child processes too
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, "", time.perf_counter() - start
    return proc.returncode, out, time.perf_counter() - start


def _last_line(out: str) -> str:
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def _run(number: int, files: list[str], timeout: float) -> tuple[str, str, float]:
    """(status, detail, seconds) for one mutant, run with the given timeout."""
    path, old, new, _ = MUTANTS[number - 1]
    text = (ROOT / path).read_text(encoding="utf-8")
    if text.count(old) != 1:
        return "stale", f"old text found {text.count(old)} times in {path}", 0.0
    code, out, seconds = _suite(files, (path, text.replace(old, new)), timeout)
    if code is None:
        return "timeout", f"over {timeout:.0f} s", seconds
    if code == 0:
        return "survived", "", seconds
    if code == 1 or (code == 2 and "ERROR collecting " in out):
        found = _FAILED.search(out)
        return "killed", found.group(1) if found else _last_line(out), seconds
    return "error", f"pytest exit {code}: {_last_line(out)}", seconds


def main() -> int:
    files = _checkout_files()
    code, out, seconds = _suite(files, timeout=UNMUTATED_TIMEOUT)
    if code != 0:
        ended = f"over {UNMUTATED_TIMEOUT} s" if code is None else f"exit {code}: {_last_line(out)}"
        print(f"the unmutated copy fails ({ended}), so no mutant is run", file=sys.stderr)
        return 1
    timeout = max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * seconds)
    print(f"unmutated copy passes in {seconds:.1f}s; each mutant's timeout is {timeout:.0f} s",
          flush=True)
    numbers = range(1, len(MUTANTS) + 1)
    start = time.perf_counter()
    tally = {"killed": 0, "survived": 0, "stale": 0, "timeout": 0, "error": 0}
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        runs = pool.map(lambda n: _run(n, files, timeout), numbers)
        for number, (status, detail, seconds) in zip(numbers, runs):
            path, _, _, reason = MUTANTS[number - 1]
            tally[status] += 1
            print(f"{number:2d} {status:8s} {seconds:6.1f}s  {Path(path).name}: {reason}"
                  + (f"  [{detail}]" if detail else ""), flush=True)
    print(f"{len(MUTANTS)} mutants: " + ", ".join(f"{n} {s}" for s, n in tally.items())
          + f" in {time.perf_counter() - start:.0f} s")
    return 1 if tally["error"] or tally["timeout"] else 0


if __name__ == "__main__":
    sys.exit(main())

"""tools/uncovered.py: statements of the package that a pytest run never executes."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from helpers import child_env

ROOT = Path(__file__).resolve().parent.parent
QUOTIENT = ROOT / "src" / "hyperconn" / "quotient.py"


def _line_of(statement: str) -> int:
    lines = [line.strip() for line in QUOTIENT.read_text().splitlines()]
    return lines.index(statement) + 1


def test_uncovered_lists_statements_a_test_file_never_runs():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "uncovered.py"), "-q", "-p", "no:cacheprovider",
         "tests/test_quotient.py", "-k", "test_element_pow"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "\nsrc/hyperconn/quotient.py\n" in result.stdout
    never_run = 'return f"RingElement({self.rep!s} mod {self.ring.modulus!s})"'
    assert f"  {_line_of(never_run)}: {never_run}\n" in result.stdout
    # the power loop ran, so its line is not listed
    power = "return _power(self.ring.one(), self, exponent)"
    assert f"  {_line_of(power)}: {power}\n" not in result.stdout
    assert result.stdout.rstrip().endswith("(code reached only from subprocesses is not seen)")


def test_uncovered_passes_on_pytest_status():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "uncovered.py"), "-q", "-p", "no:cacheprovider",
         "tests/test_quotient.py", "-k", "no_such_test_name"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120,
    )
    assert result.returncode == 5  # pytest: no tests collected

"""tools/mutants.py tells a kill from a harness failure, stops when the
unmutated copy fails, and reports a stale edit, all without running the
suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_names_a_source_file():
    for path, old, new, reason in mutants.MUTANTS:
        assert path.startswith("src/hyperconn/") and (mutants.ROOT / path).is_file()
        assert old != new and reason


def test_an_edit_whose_old_text_is_gone_is_stale(monkeypatch):
    gone = ("src/hyperconn/cli.py", "no such text", "", "a removed line")
    monkeypatch.setattr(mutants, "MUTANTS", (gone,))
    assert mutants._run(1, []) == ("stale", "old text found 0 times in src/hyperconn/cli.py", 0.0)


@pytest.mark.parametrize("code, out, status, detail", [
    (1, "FAILED tests/test_cli.py::test_a - assert 0\n1 failed", "killed", "tests/test_cli.py::test_a"),
    (2, "___ ERROR collecting tests/test_conn.py ___\nERROR tests/test_conn.py\n"
        "Interrupted: 1 error during collection", "killed", "tests/test_conn.py"),
    (2, "KeyboardInterrupt\n1 passed", "error", "pytest exit 2: 1 passed"),
    (4, "ERROR: usage: no such option", "error", "pytest exit 4: ERROR: usage: no such option"),
    (5, "no tests ran in 0.01s", "error", "pytest exit 5: no tests ran in 0.01s"),
    (0, "314 passed", "survived", ""),
])
def test_only_a_failing_test_or_module_is_a_kill(monkeypatch, code, out, status, detail):
    monkeypatch.setattr(mutants, "_suite", lambda files, edit=None: (code, out, 1.0))
    assert mutants._run(1, []) == (status, detail, 1.0)


def test_a_failing_unmutated_copy_runs_no_mutant(monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(mutants, "_checkout_files", lambda: [])
    monkeypatch.setattr(mutants, "_suite", lambda files, edit=None: runs.append(edit) or (1, "1 failed", 1.0))
    assert mutants.main() == 1
    assert runs == [None]
    assert capsys.readouterr().err == "the unmutated copy fails (exit 1: 1 failed), so no mutant is run\n"

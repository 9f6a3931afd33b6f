"""tools/mutants.py tells a kill from a harness failure, stops when the
unmutated copy fails, times each mutant by the unmutated run, and reports a
stale edit, all without running the suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.fixture
def suite(monkeypatch):
    """Stands in for the checkout and _suite, and runs nothing. _suite returns
    outcome[None] for the unmutated copy and outcome["mutant"] for every edit,
    as (exit code, output, seconds), and records each call's (edit, timeout)."""
    outcome, calls = {}, []

    def fake(files, edit=None, timeout=None):
        calls.append((edit, timeout))
        return outcome["mutant" if edit else None]

    monkeypatch.setattr(mutants, "_checkout_files", lambda: [])
    monkeypatch.setattr(mutants, "_suite", fake)
    return outcome, calls


def test_every_mutant_names_a_source_file():
    for path, old, new, reason in mutants.MUTANTS:
        assert path.startswith("src/hyperconn/") and (mutants.ROOT / path).is_file()
        assert old != new and reason


def test_an_edit_whose_old_text_is_gone_is_stale(monkeypatch):
    gone = ("src/hyperconn/cli.py", "no such text", "", "a removed line")
    monkeypatch.setattr(mutants, "MUTANTS", (gone,))
    assert mutants._run(1, [], 60) == ("stale", "old text found 0 times in src/hyperconn/cli.py", 0.0)


@pytest.mark.parametrize("code, out, status, detail", [
    (1, "FAILED tests/test_cli.py::test_a - assert 0\n1 failed", "killed", "tests/test_cli.py::test_a"),
    (2, "___ ERROR collecting tests/test_conn.py ___\nERROR tests/test_conn.py\n"
        "Interrupted: 1 error during collection", "killed", "tests/test_conn.py"),
    (2, "KeyboardInterrupt\n1 passed", "error", "pytest exit 2: 1 passed"),
    (4, "ERROR: usage: no such option", "error", "pytest exit 4: ERROR: usage: no such option"),
    (5, "no tests ran in 0.01s", "error", "pytest exit 5: no tests ran in 0.01s"),
    (0, "314 passed", "survived", ""),
    (None, "", "timeout", "over 60 s"),
])
def test_only_a_failing_test_or_module_is_a_kill(suite, code, out, status, detail):
    outcome, calls = suite
    outcome["mutant"] = (code, out, 1.0)
    assert mutants._run(1, [], 60) == (status, detail, 1.0)
    assert calls[0][1] == 60


def test_a_failing_unmutated_copy_runs_no_mutant(suite, capsys):
    outcome, calls = suite
    outcome[None] = (1, "1 failed", 1.0)
    assert mutants.main() == 1
    assert calls == [(None, mutants.UNMUTATED_TIMEOUT)]
    assert capsys.readouterr().err == "the unmutated copy fails (exit 1: 1 failed), so no mutant is run\n"


@pytest.mark.parametrize("seconds, mutant, timeout, status, code", [
    (4.0, (1, "FAILED tests/test_cli.py::test_a\n1 failed", 1.0), 60, "killed", 0),
    (30.0, (None, "", 150.0), 150, "timeout", 1),
])
def test_each_mutant_is_timed_by_the_unmutated_run(suite, capsys, seconds, mutant, timeout, status, code):
    # five times the unmutated copy's seconds, at least 60 s; a timeout says
    # nothing about the edit, so the tool exits 1 as on an error
    outcome, calls = suite
    outcome.update({None: (0, "1 passed", seconds), "mutant": mutant})
    assert mutants.main() == code
    assert calls[0] == (None, mutants.UNMUTATED_TIMEOUT)
    assert {t for _, t in calls[1:]} == {timeout}
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith(f"{len(mutants.MUTANTS)} mutants: ")
    assert f" {len(calls) - 1} {status}," in summary

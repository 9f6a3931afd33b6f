"""Argument checks of tools/bench_record.py, which must refuse bad input
before it starts a benchmark run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["9", "dense-shifted", "71"], ("9", "dense-shifted", 71)),
        (["pre_9-b", "verify-sweep", "-5"], ("pre_9-b", "verify-sweep", -5)),
        (["9", "eval-power", "007"], ("9", "eval-power", 7)),
    ],
)
def test_well_formed_arguments(argv, expected):
    assert bench_record.parse_arguments(argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["9", "dense-shifted"],
        ["9", "dense-shifted", "71", "extra"],
        ["9", "dense-shifted", "--5"],
        ["9", "dense-shifted", "-"],
        ["9", "dense-shifted", "+5"],
        ["9", "dense-shifted", "5-"],
        ["9", "dense-shifted", "٥"],  # an Arabic-Indic digit: isdigit() but not ASCII
        ["9", "dense-shifted", "5\n"],
        ["9", "dense-shifted", " 5"],
        ["../x", "dense-shifted", "71"],
        ["a/b", "dense-shifted", "71"],
        ["", "dense-shifted", "71"],
        ["9.1", "dense-shifted", "71"],
    ],
)
def test_malformed_arguments_exit_2_before_any_run(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(bench_record.subprocess, "run", refuse)
    assert bench_record.main(argv) == 2
    assert capsys.readouterr().err == "usage: bench_record.py LABEL WORKLOAD SEED\n"

"""tools/coldstart.py times fresh processes of two trees under both bytecode
settings; a smoke run compares this checkout with itself."""

from __future__ import annotations

import re

import pytest

from helpers import ROOT, load_module

coldstart = load_module("tools/coldstart.py")


def test_one_pair_per_command_and_setting_against_the_same_tree(capsys):
    assert coldstart.main([str(ROOT), "--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    shape = re.compile(r"(cached|compiled) +(verify|eval) +this +[\d.]+ ms +other +[\d.]+ ms +"
                       r"\([+-]\d+\.\d%, this faster in [01]/1 pairs\)$")
    matches = [shape.match(line) for line in lines]
    assert all(matches), lines
    assert [m.group(1, 2) for m in matches] == [
        ("cached", "verify"), ("cached", "eval"), ("compiled", "verify"), ("compiled", "eval")
    ]


@pytest.mark.parametrize("argv", [["/nonexistent-tree"], [str(ROOT), "--runs", "0"]])
def test_bad_arguments_exit_2_before_any_run(monkeypatch, argv):
    monkeypatch.setattr(coldstart, "_run", lambda *args: pytest.fail("a child was started"))
    with pytest.raises(SystemExit) as exit_info:
        coldstart.main(argv)
    assert exit_info.value.code == 2


def test_a_failing_child_stops_the_tool_with_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(coldstart, "COMMANDS", {"bad": ("verify", "ellipsoid", "--p", "1")})
    assert coldstart.main([str(ROOT), "--runs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: `hyperconn verify ellipsoid")

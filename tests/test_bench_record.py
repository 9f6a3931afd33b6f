"""Argument checks of tools/bench_record.py, which must refuse bad input
before it starts a benchmark run, and the counts it stores."""

from __future__ import annotations

import json

import pytest

from helpers import ROOT, load_module

bench_record = load_module("tools/bench_record.py")


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


def test_bench_record_stores_the_counts_of_one_traced_run_per_workload(
        tmp_path, monkeypatch, capsys):
    calls = []

    def fake_bench(workload, seed, seconds, trace):
        calls.append((workload, seed, trace))
        metrics = {name: {"value": 1.5, "unit": "u"} for name in bench_record.METRICS}
        if trace:
            metrics = {"polycore.mul.calls": {"value": 259.5},
                       "polycore.mul.self_s": {"value": 0.01},
                       "polycore.mul.term_pairs": {"value": 1415.0},
                       "polycore.divide_remainder.term_updates": {"value": 1057.25},
                       "polycore.divide_remainder.terms_in": {"value": 4},
                       "trace.coverage": {"value": 0.9}}
        return {"attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "git", lambda *args: "" if args[0] == "status" else "c0")
    monkeypatch.setattr(bench_record, "bench", fake_bench)
    for seed in ("5", "6"):
        assert bench_record.main(["t", "dense-shifted", seed]) == 0
    capsys.readouterr()
    assert calls == [("dense-shifted", 5, 0), ("dense-shifted", 1, 1), ("dense-shifted", 6, 0)]
    entry = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["dense-shifted"]
    assert entry["counts"] == {"polycore.mul.calls": 259.5, "polycore.mul.term_pairs": 1415.0,
                               "polycore.divide_remainder.term_updates": 1057.25}
    assert [run["seed"] for run in entry["runs"]] == [5, 6]
    # the stored metrics and the run length are the ones BENCHMARK.json declares
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["end_to_end"]]
    assert all(list(run["metrics"]) == names for run in entry["runs"])
    assert list(entry["summary"]) == names
    assert bench_record.SECONDS == spec["run_seconds"]

"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run with: python -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import _Tally, _timed  # noqa: E402
from workloads import EvalPower, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_printed(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    for metric in named:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} = ") for line in lines[:-1])
    if not trace:
        assert any(line.startswith("failed_frac = 0.0 ") for line in lines)


def test_wrong_remainder_counts_as_failed():
    op = ("(x+y+z)^2", 2, "x^2+y^2+z^2-1", ((2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 0, 0)))

    class Fixed:
        name = "eval-power"
        check = staticmethod(EvalPower.check)

        def __init__(self, output):
            self.output = output

        def run(self, op):
            return 0, self.output, ""

        def deferred(self, index, op, result):
            return None

    tally = _Tally()
    for output in ("2*x*y+2*x*z+2*y*z+1\n", "x^2+2*x*y+y^2+z^2\n"):
        workload = Fixed(output)
        tally.add(workload, 0, op, _timed(workload, op))
    assert len(tally.latencies) == 2
    assert len(tally.failures) == 1 and "x^2" in tally.failures[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "eval-power", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""

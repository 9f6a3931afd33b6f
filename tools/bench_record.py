"""Record one benchmark run into BENCH_<LABEL>.json at the repository root.

Usage (from anywhere):

    python3 tools/bench_record.py LABEL WORKLOAD SEED

Runs ``perfbench/run.py --workload WORKLOAD --seed SEED --seconds S
--trace 0`` on this checkout, S being BENCHMARK.json's ``run_seconds``,
echoes its report, and merges the result into BENCH_<LABEL>.json: the
commit, Python version and CPU count once, and per workload every run
(seed, attempted, failed, and each end-to-end metric BENCHMARK.json lists)
with the median and quartiles of each metric over the runs so far. The
first run of a workload in a file also runs ``--workload WORKLOAD --seed 1
--trace 1`` and stores its exact per-op work counts (every ``*.calls``,
``*.term_pairs`` and ``*.term_updates``) under ``counts``; they depend only
on the program and the seeded inputs, not on the host. A file
holds the runs of one commit only; a run of another commit, or one that
leaves uncommitted changes to tracked files, is refused. LABEL is letters,
digits, "_" and "-"; SEED is an integer in ASCII digits with an optional
leading "-". Other arguments exit with status 2 before anything runs.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = _SPEC["run_seconds"]
METRICS = tuple(metric["name"] for metric in _SPEC["end_to_end"])
# The traced run times one untraced half of TRACE_SECONDS, at least one cycle,
# then counts one traced cycle; only the counts are kept.
TRACE_SECONDS = 2
COUNTS = (".calls", ".term_pairs", ".term_updates")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def summary(values):
    """Median and quartiles; one run is its own median and quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def bench(workload: str, seed: int, seconds: float, trace: int):
    """The JSON result of one perfbench/run.py run, echoed as it ran, or
    its non-zero exit status."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return proc.returncode
    return json.loads(proc.stdout.splitlines()[-1])


def parse_arguments(argv):
    """(label, workload, seed), or None when the arguments are malformed."""
    if len(argv) != 3:
        return None
    label, workload, seed = argv
    if not re.fullmatch(r"[A-Za-z0-9_-]+", label) or not re.fullmatch(r"-?[0-9]+", seed):
        return None
    return label, workload, int(seed)


def main(argv) -> int:
    arguments = parse_arguments(argv)
    if arguments is None:
        print("usage: bench_record.py LABEL WORKLOAD SEED", file=sys.stderr)
        return 2
    label, workload, seed = arguments
    commit = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no", "--", ".", ":(exclude)BENCH_*.json"):
        print("error: tracked files differ from the commit; commit them first", file=sys.stderr)
        return 2
    path = ROOT / f"BENCH_{label}.json"
    record = json.loads(path.read_text()) if path.exists() else {
        "label": label,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "counts_command": "python3 perfbench/run.py --workload W --seed 1 "
                          f"--seconds {TRACE_SECONDS} --trace 1",
        "workloads": {},
    }
    if record["commit"] != commit:
        print(f"error: {path.name} holds runs of {record['commit']}, not {commit}", file=sys.stderr)
        return 2

    result = bench(workload, seed, SECONDS, 0)
    if isinstance(result, int):
        return result
    entry = record["workloads"].setdefault(workload, {"runs": []})
    if "counts" not in entry:
        traced = bench(workload, 1, TRACE_SECONDS, 1)
        if isinstance(traced, int):
            return traced
        entry["counts"] = {name: metric["value"] for name, metric in traced["metrics"].items()
                           if name.endswith(COUNTS)}
    entry["runs"].append({
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name]["value"] for name in METRICS},
    })
    runs = entry["runs"]
    entry["attempted"] = sum(run["attempted"] for run in runs)
    entry["failed"] = sum(run["failed"] for run in runs)
    entry["summary"] = {
        name: {**summary([run["metrics"][name] for run in runs]),
               "unit": result["metrics"][name]["unit"]}
        for name in METRICS
    }
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"recorded run {len(runs)} of {workload} in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""hyperconn benchmark: one workload, one closed-loop client, checked results.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 35 --trace 0

Workloads are verify-sweep, eval-power and dense-shifted; perfbench/workloads.json
records why each was chosen, its inputs, and which layer metric should move
which end-to-end metric. The workload runs in a fresh interpreter
(perfbench/worker.py) with no threads and no process pool. The source under
src/ is used as it is; nothing is built.

--trace 0 prints the end-to-end metrics: ops_per_s, latency_p50_ms,
latency_p90_ms, setup_s (median over fresh interpreters, from start to the
first timed operation: import hyperconn and input generation) and
peak_rss_mb, plus failed_frac and the sample counts on the human-readable
lines. --trace 1 prints the per-layer metrics of perfbench/tracer.py. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Every operation's output is checked; a failed
or raising operation counts in failed.

Times are in reference-host seconds: each measured time is multiplied by
CALIBRATION_REF_S over the time of a fixed calibration loop run right before
and after it (see worker.scale), because the host's speed drifts by up to 2x
over tens of seconds and the loop slows down with the workload. Per-layer
self times are raw seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import UNITS  # noqa: E402
from worker import calibrate, scale  # noqa: E402
from workloads import WORKLOADS, check_deferred  # noqa: E402

SETUP_SAMPLES = 7
# An operation of these workloads takes at most a few seconds.
GRACE_S = 60


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, mode: str, seconds: float):
    """Run the worker once: (seconds from spawn to ready, its result or None)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(seconds)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        out, _ = proc.communicate(timeout=seconds + GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {mode} run of {workload} exited with {proc.returncode}")
    return setup, (json.loads(out) if out.strip() else None)


def timed_setups(workload: str, seed: int):
    """Set-up times of fresh interpreters, in reference-host seconds."""
    spawn(workload, seed, "setup", 0)  # writes bytecode caches; not counted
    setups = []
    before = calibrate()
    for _ in range(SETUP_SAMPLES):
        setup, _ = spawn(workload, seed, "setup", 0)
        after = calibrate()
        setups.append(scale(setup, (before, after)))
        before = after
    return setups


def end_to_end(scaled, setups, peak_rss_kb):
    return {
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1000, "ms"),
        "latency_p90_ms": (statistics.quantiles(scaled, n=10)[8] * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hyperconn" / "__init__.py").is_file():
        print(f"error: no hyperconn source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            _, result = spawn(args.workload, args.seed, "trace", args.seconds)
        else:
            setups = timed_setups(args.workload, args.seed)
            _, result = spawn(args.workload, args.seed, "measure", args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    failures = list(result["failures"])
    for record in result["deferred"]:
        reason = check_deferred(record)
        if reason is not None:
            failures.append(reason)
    scaled = result["scaled"]
    attempted, failed = len(scaled), len(failures)
    for reason in failures[:5]:
        print(f"failed: {reason}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, closed loop, 1 client, "
          f"{attempted} operations, {len(result['deferred'])} confirmed by sympy")
    if args.trace:
        metrics = {name: (value, UNITS.get(name.rsplit(".", 1)[1], "fraction"))
                   for name, value in result["metrics"].items()}
        print(f"traced: {result['traced_ops']} operations, one pass of the first cycle "
              f"(per-op values are per traced operation)")
    else:
        metrics = end_to_end(scaled, setups, result["peak_rss_kb"])
        print(f"samples: {attempted} operations ({attempted - int(0.9 * attempted)} beyond "
              f"p90), {SETUP_SAMPLES} set-ups; the host ran {result['slowdown']:.2f}x slower "
              f"than the reference host")
        print(f"failed_frac = {failed / attempted} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

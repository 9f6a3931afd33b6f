"""One fresh interpreter running one workload; started by run.py.

Usage: worker.py WORKLOAD SEED MODE SECONDS, with MODE one of
  setup    import hyperconn, generate the inputs, report ready, exit;
  measure  then run the workload's operations round and round, in a closed
           loop with one client, for SECONDS;
  trace    then run the traced cycle (the first CYCLE operations) for
           SECONDS/2, then once more with every layer traced.

The worker writes "ready" on its standard output once set-up is done, then
one JSON line with the results. Operations write to captured buffers, so
nothing else reaches standard output.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# The calibration loop's time on the reference host (2 vCPU VM at 2.0 GHz,
# Python 3.11.7) at its full speed; it defines the reference-host second.
CALIBRATION_REF_S = 0.006


def _timed(workload, op):
    """Run one operation: (seconds, result or None, failure reason or None)."""
    start = perf_counter()
    try:
        result = workload.run(op)
    except Exception as err:  # a raising operation counts as failed
        return perf_counter() - start, None, f"{type(err).__name__}: {err}"
    elapsed = perf_counter() - start
    try:
        reason = workload.check(op, result)
    except Exception as err:  # malformed output counts as failed
        reason = f"check raised {type(err).__name__}: {err}"
    return elapsed, result, reason


class _Tally:
    def __init__(self):
        self.latencies = []
        self.failures = []
        self.deferred = []

    def add(self, workload, index, op, timed):
        elapsed, result, reason = timed
        self.latencies.append(elapsed)
        if reason is not None:
            self.failures.append(reason)
        elif index is not None:
            record = workload.deferred(index, op, result)
            if record is not None:
                self.deferred.append(record)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python Fraction loop: the host's current speed."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 1000):
        total += Fraction(1, k) * Fraction(k % 7 + 1, 3)
    return perf_counter() - start


def scale(seconds: float, calibrations) -> float:
    """A measured time in reference-host seconds.

    The host's speed drifts by up to 2x over tens of seconds, and the
    workload and the calibration loop slow down alike, so a time divided by
    the loop's time measured around it is steady where the raw time is not.
    """
    return seconds * CALIBRATION_REF_S / statistics.mean(calibrations)


def repeat(workload, ops, seconds: float, tally: _Tally, minimum: int):
    """Run ``ops`` round and round for ``seconds``, at least ``minimum`` times.

    Returns each run's time in reference-host seconds; the calibration loop
    runs between operations, outside their timed regions.
    """
    scaled = []
    deadline = perf_counter() + seconds
    before = calibrate()
    done = 0
    while done < minimum or perf_counter() < deadline:
        index = done % len(ops)
        timed = _timed(workload, ops[index])
        after = calibrate()
        tally.add(workload, index if done < len(ops) else None, ops[index], timed)
        scaled.append(scale(timed[0], (before, after)))
        before = after
        done += 1
    return scaled


def measure(workload, seconds: float) -> dict:
    tally = _Tally()
    scaled = repeat(workload, workload.ops, seconds, tally, minimum=2)
    slowdown = statistics.median(t / s for t, s in zip(tally.latencies, scaled))
    return {"scaled": scaled, "failures": tally.failures, "deferred": tally.deferred,
            "slowdown": slowdown}


def trace(workload, seconds: float) -> dict:
    from tracer import LAYERS, Tracer

    cycle = workload.ops[:workload.CYCLE]
    tally = _Tally()
    untraced = repeat(workload, cycle, seconds / 2, tally, minimum=len(cycle))
    tracer = Tracer()
    traced_tally = _Tally()
    try:
        tracer.install()
        traced = repeat(workload, cycle, 0, traced_tally, minimum=len(cycle))
    finally:
        tracer.uninstall()

    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    metrics = tracer.metrics(len(cycle), sum(traced_tally.latencies), overhead)
    expected = json.loads((Path(__file__).parent / "workloads.json").read_text())["layers"]
    silent = [layer for layer, *_ in LAYERS
              if workload.name in expected[layer]["runs_on"] and not metrics[f"{layer}.calls"]]
    if silent:
        raise RuntimeError(f"traced layers recorded no calls on {workload.name}: {silent}")
    return {"scaled": untraced + traced, "failures": tally.failures + traced_tally.failures,
            "deferred": tally.deferred, "metrics": metrics, "traced_ops": len(cycle)}


def main(argv) -> int:
    name, seed, mode, seconds = argv[0], int(argv[1]), argv[2], float(argv[3])
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    result = measure(workload, seconds) if mode == "measure" else trace(workload, seconds)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

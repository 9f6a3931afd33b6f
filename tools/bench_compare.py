"""Compare two benchmark records, run by run.

Usage (from anywhere):

    python3 tools/bench_compare.py PARENT_LABEL CHANGE_LABEL

Reads BENCH_<PARENT_LABEL>.json and BENCH_<CHANGE_LABEL>.json at the
repository root, as tools/bench_record.py writes them, and prints one block
per workload that both hold. The block opens with each side's failed and
attempted operations. For each end-to-end metric BENCHMARK.json lists, a
line gives each side's median and quartiles, the relative change of the
median, the wins of the change, and whether a gain may be claimed. Run k
of the change is paired with run k of the parent, and it wins when its value
is better in the direction BENCHMARK.json gives; ties count for neither. A
gain may be claimed when the change wins at least nine tenths of the pairs,
its median is better than the parent's by more than the parent's
interquartile range, and its share of failed operations is not above the
parent's. The line ends with a verdict against the metric's ``bound`` in
BENCHMARK.json, a fraction of the parent's median: "unresolved" when the
parent's interquartile range is wider than the bound, unless every run of
the change beats every run of the parent; otherwise "worse past bound" when
the change's median is worse than the parent's by more than the bound, and
"within bound" when it is not. Then each exact work count either record holds (``counts``) is
printed parent -> change with its difference; "-" marks a count one side
lacks, and records without counts print none. LABEL is letters, digits, "_"
and "-"; other arguments or a missing file exit with status 2.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def _failed(entry: dict) -> tuple[int, int]:
    """(failed, attempted) over every run of one workload."""
    return (sum(run["failed"] for run in entry["runs"]),
            sum(run["attempted"] for run in entry["runs"]))


def _verdict(old_runs: list, new_runs: list, old: dict, now: dict, sign: int,
             bound: float) -> str:
    """The bound verdict of one metric; sign is 1 when higher is better."""
    allowed = bound * abs(old["median"])
    beats_every_run = min(sign * v for v in new_runs) > max(sign * v for v in old_runs)
    if old["q3"] - old["q1"] > allowed and not beats_every_run:
        return "unresolved"
    if sign * (old["median"] - now["median"]) > allowed:
        return "worse past bound"
    return "within bound"


def compare(parent: dict, change: dict, metrics: dict) -> dict:
    """{workload: {"failed", "rows", "counts"}} for the workloads both records hold.

    metrics maps each metric name to its direction, "higher" or "lower", and
    its bound. "failed" is each side's (failed, attempted); a row holds the
    metric, both summaries, the pair count, the wins, the claim verdict and
    the bound verdict; "counts" lists (name, parent value, change value) for
    every count either side holds, None where a side lacks it.
    """
    table = {}
    for workload, base in parent["workloads"].items():
        if workload not in change["workloads"]:
            continue
        new = change["workloads"][workload]
        pairs = min(len(base["runs"]), len(new["runs"]))
        (old_failed, old_ran), (new_failed, new_ran) = _failed(base), _failed(new)
        # the change's failed share is at most the parent's, without dividing
        no_more_failed = new_failed * old_ran <= old_failed * new_ran
        rows = []
        for metric, (direction, bound) in metrics.items():
            sign = 1 if direction == "higher" else -1
            old, now = base["summary"][metric], new["summary"][metric]
            old_runs = [run["metrics"][metric] for run in base["runs"]]
            new_runs = [run["metrics"][metric] for run in new["runs"]]
            wins = sum(sign * (b - a) > 0 for a, b in zip(old_runs, new_runs))
            gap = sign * (now["median"] - old["median"])
            rows.append({
                "metric": metric,
                "parent": old,
                "change": now,
                "pairs": pairs,
                "wins": wins,
                "claim": bool(pairs) and 10 * wins >= 9 * pairs
                and gap > old["q3"] - old["q1"] and no_more_failed,
                "bound": _verdict(old_runs, new_runs, old, now, sign, bound),
            })
        old_counts, new_counts = base.get("counts", {}), new.get("counts", {})
        table[workload] = {
            "failed": ((old_failed, old_ran), (new_failed, new_ran)),
            "rows": rows,
            "counts": [(name, old_counts.get(name), new_counts.get(name))
                       for name in {**old_counts, **new_counts}],
        }
    return table


def _spread(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def _count(value) -> str:
    return "-" if value is None else f"{value:.10g}"


def render(table: dict) -> str:
    lines = []
    for workload, block in table.items():
        lines.append(f"{workload}: parent -> change, median [q1, q3]")
        (old_failed, old_ran), (new_failed, new_ran) = block["failed"]
        lines.append(f"  {'failed':<15} {f'{old_failed}/{old_ran}':>28} -> {new_failed}/{new_ran}")
        for row in block["rows"]:
            old, now = row["parent"]["median"], row["change"]["median"]
            delta = f"{100 * (now - old) / old:+.1f}%" if old else "n/a"
            lines.append(
                f"  {row['metric']:<15} {_spread(row['parent']):>28} -> "
                f"{_spread(row['change']):<28} {delta:>7}  wins {row['wins']}/{row['pairs']}"
                f"  gain {'holds' if row['claim'] else 'not shown'}  {row['bound']}"
            )
        if block["counts"]:
            lines.append("  counts per op, --trace 1 --seed 1: parent -> change (difference)")
        for name, old, now in block["counts"]:
            delta = "" if old is None or now is None else f" ({now - old:+.10g})"
            lines.append(f"    {name:<40} {_count(old):>14} -> {_count(now)}{delta}")
    return "\n".join(lines) + "\n"


def main(argv) -> int:
    if len(argv) != 2 or not all(re.fullmatch(r"[A-Za-z0-9_-]+", a) for a in argv):
        print("usage: bench_compare.py PARENT_LABEL CHANGE_LABEL", file=sys.stderr)
        return 2
    records = []
    for label in argv:
        path = ROOT / f"BENCH_{label}.json"
        if not path.is_file():
            print(f"error: {path.name} does not exist", file=sys.stderr)
            return 2
        records.append(json.loads(path.read_text()))
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    sys.stdout.write(render(compare(*records, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

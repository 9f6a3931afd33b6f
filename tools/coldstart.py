"""Time fresh `hyperconn` processes of this checkout against another one.

Usage (from anywhere):

    python3 tools/coldstart.py OTHER_CHECKOUT [--runs N]

OTHER_CHECKOUT is the root of a second tree with a src/hyperconn package,
such as an unpacked parent commit. For each command of COMMANDS the tool
starts N fresh `python -m hyperconn ...` processes per tree, alternating the
trees and which goes first, and reports the median wall time from start to
exit of each, this tree's change against the other's, and in how many of the
N pairs this tree was faster. It does so under two bytecode settings, in
this order:

- cached: every child writes and reads bytecode under one temporary
  PYTHONPYCACHEPREFIX, with PYTHONDONTWRITEBYTECODE cleared for the children
  only, after one warm-up run of each command in each tree;
- compiled: PYTHONDONTWRITEBYTECODE=1 and the prefix holds the standard
  library's bytecode but none of either tree's, so every child compiles the
  package's source, as a host that writes no bytecode does. A __pycache__
  directory inside a tree is never read, since the prefix replaces it.

Each child runs with PYTHONPATH set to its tree's src alone and in a
temporary working directory. A child that exits nonzero, or whose output
differs from this tree's for the same command, stops the tool with exit
status 1, since its time would say nothing; exit status 2 for bad
arguments. The host's speed drifts, so read the pairs and the change, not
the absolute times.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = {
    "verify": ("verify", "ellipsoid", "--p", "2", "--q", "3", "--r", "4", "--json"),
    "eval": ("eval", "(2*x+3*y-z)^8", "mod", "x^2+y^3+z^4-1"),
}


def _env(tree: Path, prefix: Path, write: bool) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONPYCACHEPREFIX": str(prefix)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run(argv, env: dict, cwd: str) -> tuple[float, str]:
    """(seconds from start to exit, standard output) of one child process."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hyperconn", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"`hyperconn {' '.join(argv)}` exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return seconds, proc.stdout


def compare(trees: tuple[Path, Path], runs: int, prefix: Path, cwd: str, write: bool):
    """Yield (command, this tree's seconds, the other's) over runs alternated pairs."""
    envs = [_env(tree, prefix, write) for tree in trees]
    for name, argv in COMMANDS.items():
        times = ([], [])
        expected = None
        for k in range(runs):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                seconds, out = _run(argv, envs[side], cwd)
                expected = out if expected is None else expected
                if out != expected:
                    raise RuntimeError(f"`hyperconn {name}` prints differently in {trees[side]}")
                times[side].append(seconds)
        yield name, times[0], times[1]


def _line(mode: str, name: str, this: list, other: list) -> str:
    mine, theirs = statistics.median(this), statistics.median(other)
    wins = sum(a < b for a, b in zip(this, other))
    return (f"{mode:8s} {name:6s}  this {mine * 1e3:6.1f} ms  other {theirs * 1e3:6.1f} ms  "
            f"({(mine / theirs - 1) * 100:+.1f}%, this faster in {wins}/{len(this)} pairs)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--runs", type=int, default=21, help="pairs per command and setting")
    args = parser.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "hyperconn" / "__init__.py").is_file():
        parser.error(f"no src/hyperconn package under {other}")
    if args.runs < 1:
        parser.error("--runs must be a positive integer")
    trees = (ROOT, other)
    with tempfile.TemporaryDirectory(prefix="coldstart-") as tmp:
        prefix, cwd = Path(tmp) / "pycache", tmp
        try:
            for tree in trees:  # warm-up: fills the prefix for both settings
                for argv in COMMANDS.values():
                    _run(argv, _env(tree, prefix, True), cwd)
            for name, this, theirs in compare(trees, args.runs, prefix, cwd, True):
                print(_line("cached", name, this, theirs), flush=True)
            for tree in trees:  # the prefix mirrors absolute paths
                shutil.rmtree(prefix / (tree / "src").relative_to(tree.anchor), ignore_errors=True)
            for name, this, theirs in compare(trees, args.runs, prefix, cwd, False):
                print(_line("compiled", name, this, theirs), flush=True)
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

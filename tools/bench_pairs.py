"""Paired comparison of two checkouts on one bench workload.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs N]
                                 [--seed S] [--seconds T]

PARENT and CHANGE are roots of two qeuler checkouts, for instance made with
`git archive REV | tar -x -C DIR`.  Pair i runs

    python3 perfbench/run.py --workload W --seed S+i --seconds T

once in each tree, back to back, the parent first in even pairs and the
change first in odd ones.  Each run starts in a fresh copy of its tree
(without __pycache__ or .git), so every run compiles the program as a new
checkout does.  For every end-to-end metric of BENCHMARK.json, and for each
time of the run's `measured:` line (before the calibration scaling), it
prints both sides' medians and quartiles, the median and quartiles of the
per-pair ratios change/parent, and the pairs the change won.  Two runs of a
pair are close in time, so a slow or fast spell of the host that spans them
cancels in their ratio.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MEASURED = re.compile(r"(\w+) ([-+0-9.eE]+) (?:s|ms|1/s)\b")


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench run in a fresh copy of tree: its metrics by name, the
    measured times as measured.NAME, and its failed share."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(tree, copy, ignore=shutil.ignore_patterns("__pycache__", ".git"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds)],
            cwd=copy, capture_output=True, text=True, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"run in {tree} (seed {seed}) failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in proc.stderr.splitlines():
        if line.startswith("measured:"):
            body = line.split(",", 1)[1]
            values |= {f"measured.{k}": float(v) for k, v in MEASURED.findall(body)}
    values["failed_share"] = result["failed"] / max(result["attempted"], 1)
    values["correct"] = float(result["correct"])
    return values


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better |= {f"measured.{k}": v for k, v in better.items()}
    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = args.parent if side == "parent" else args.change
            sides[side].append(run(tree, args.workload, args.seed + i, args.seconds))
        print(f"pair {i + 1}/{args.pairs} (seed {args.seed + i}) done", file=sys.stderr)
    parent, change = sides["parent"], sides["change"]
    print(f"workload {args.workload}, {args.pairs} pairs, seeds {args.seed}.."
          f"{args.seed + args.pairs - 1}, --seconds {args.seconds:g}")
    print("metric: parent median [q1, q3] | change median [q1, q3] | "
          "change/parent per pair median [q1, q3] | pairs won")
    for name in [n for n in parent[0] if n in change[0]]:
        ps, cs = [r[name] for r in parent], [r[name] for r in change]
        line = f"{name}: {spread(ps)} | {spread(cs)}"
        if name in better:
            ratios = [c / p for p, c in zip(ps, cs) if p]
            won = sum((c < p) if better[name] == "lower" else (c > p) for p, c in zip(ps, cs))
            line += f" | {spread(ratios) if ratios else '-'} | {won}/{len(ps)}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

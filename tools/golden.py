"""Golden check of the qeuler command line.

Runs a fixed set of argvs, each as `python -m qeuler ARGV` with the
interpreter running this script and the caller's PYTHONPATH, and prints one
line per argv:

    EXIT SHA256(stdout)[:16] SHA256(stderr)[:16] ARGV

then runs each script in demos/ the same way and prints one line per demo:

    EXIT SHA256(stdout)[:16] SHA256(stderr)[:16] demos/NAME.py

A golden check is a diff of two runs, one per checkout:

    PYTHONPATH=src python3 tools/golden.py > after.txt

A line that differs names an argv whose exit code, stdout or stderr changed;
stderr holds the message of every refusal (exit 2 or 3).

    python3 tools/golden.py --compare OTHER_ROOT

runs each VERIFY_JSON argv in the checkout OTHER_ROOT (before) and in the
one holding this script (after), each with PYTHONPATH set to its src/, and
pairs their JSON records in order.  It prints every verdict flip (PASS,
FAIL or error) as `flip: ARGV | INSTANCE | BEFORE -> AFTER`, every argv
whose record count changed, the number of flips over the records paired,
and the largest relative move |after - before| / |before| of the lhs and
of the rhs, with its argv and instance.  Only the standard library is used;
the file is not a test module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# verify --output json --identity ...: the sweep set every refactor is held to
VERIFY_JSON = [
    "T1 --d 3 --r 1 --q 0.5 --a 1 --b 3 --s 1.5 --x 1",
    "T1 --d 3 --r 2 --q 0.5 --a 1 --b 3 --s=-0.5,0.5 --x 0.75",
    "T1 --d 15 --chi 1 --r 1 --q 0.5 --a 1 --b 3 --s 2.5 --x 1",
    "T1 --d 3 --q 0.5 --a 1 --b 3 --s 1 --x 0",
    "T1 --d 45 --chi 5 --r 1 --q 0.3 --a 1 --b 3 --s=1,1 --x 0.5",
    "T1 --d 1 --r 3 --q 0.5 --a 1 --b 1 --s -3 --x 2",
    "T2 --d 3 --r 1 --q 0.5 --a 1 --b 3 --n-max 6",
    "T2 --d 15 --r 1 --q 0.5 --a 1 --b 3 --n-max 3 --x 0.5",
    "T2 --d 45 --r 4 --a 5 --b 3 --chi 3 --q 0.5",
    "T2 --d 3 --r 2 --q 0.5 --a 1 --b 3 --n-max 3 --tolerance 1e-12",
    "T2 --d 1 --r 3 --q 0.3 --a 3 --b 5 --n-max 4 --x 0.25",
    "T2 --d 45 --chi 7 --r 1 --q 0.7 --a 1 --b 3 --n-max 2",
    "T2 --d 1 --r 2 --q 0.97 --a 1 --b 3 --n-max 12",
    "T2 --d 3 --chi 1 --r 1 --q 0.5 --a 1 --b 3 --n-max 3 --epsilon 1e-12 --tolerance 1e-12",
    "T3 --d 3 --r 2 --q 0.5 --a 1 --b 3 --n-max 4",
    "T3 --d 15 --chi 2 --r 1 --q 0.5 --a 3 --b 5 --n-max 3 --x 0.5",
    "T3 --d 1 --r 3 --q 0.7 --a 1 --b 3 --n-max 3",
    "T3 --d 45 --chi 1 --r 1 --q 0.5 --a 1 --b 3 --n-max 2 --tolerance 1e-9",
    "EQ4 --d 45 --r 3 --q 0.9 --n-max 9 --x 1.5 --chi 0",
    "EQ4 --d 3 --r 2 --q 0.5 --n-max 3 --tolerance 1e-12",
    "EQ4 --d 1 --r 1 --q 0.5 --n-max 8 --x 1",
    "EQ4 --d 15 --r 3 --q 0.9 --n-max 6 --chi 3",
    "EQ4 --d 3 --r 1 --q 0.7 --n-max 5 --epsilon 1e-12",
    "EQ5 --d 3 --r 1 --q 0.5 --n-max 5 --x 0.5",
    "EQ5 --d 15 --r 2 --q 0.5 --n-max 3 --x 1",
    "EQ5 --d 1 --r 3 --q 0.7 --n-max 4 --x 0",
    "EQ5 --d 3 --chi 1 --r 1 --q 0.5 --n-max 4 --x 0.5 --tolerance 1e-12",
    "EQ9 --d 3 --r 1 --q 0.5 --n-max 4 --x 0.5 --y 0.25",
    "EQ9 --d 45 --chi 11 --r 2 --q 0.3 --n-max 3 --x 1 --y 0.5",
    "EQ9 --d 1 --r 1 --q 0.5 --n-max 3 --x 0 --y 0.25",
    "EQ12 --d 3 --r 1 --q 0.5 --a 1 --b 3 --n-max 4",
    "EQ12 --d 15 --r 2 --q 0.5 --a 1 --b 3 --n-max 2 --chi 4",
    "EQ12 --d 1 --r 3 --q 0.3 --a 3 --b 1 --n-max 3",
    "EQ13 --d 3 --r 2 --q 0.5 --a 1 --b 3 --n-max 3",
    "EQ13 --d 15 --r 1 --q 0.7 --a 1 --b 5 --n-max 2",
    "EQ15 --d 3 --r 1 --q 0.5 --m-max 3 --n-max 3 --x 0.5 --y 0.25",
    "EQ15 --d 15 --chi 6 --r 2 --q 0.5 --m-max 2 --n-max 2 --x 1 --y 0",
    "EQ15 --d 1 --r 3 --q 0.7 --m-max 2 --n-max 3 --x 0 --y 0.5",
    # the sweep shapes of the benchmark's sweep-symmetry workload
    "T2 --d 15 --r 2 --q 0.7 --a 3 --b 1 --n-max 12 --x 1",
    "EQ13 --d 15 --r 2 --q 0.7 --a 3 --b 5 --n-max 10 --x 1",
    "EQ12 --d 15 --r 2 --q 0.6 --a 1 --b 3 --n-max 15 --x 0.5",
    "T3 --d 15 --r 2 --q 0.7 --a 1 --b 3 --n-max 8",
    # at q^3 = 0.027 many degrees of the line share a cutoff
    "T2 --d 15 --r 2 --q 0.3 --a 3 --b 1 --n-max 40 --x 0.5",
    # deep sweeps whose weight bounds spread, so the planner's window widens
    "EQ5 --d 15 --r 3 --q 0.9 --n-max 20 --x 0.5",
    "EQ9 --d 15 --r 3 --q 0.9 --n-max 20 --x 0.75 --y 1",
    "T1 --d 15 --r 2 --q 0.7 --a 1 --b 5 --s=1.5,0.5 --x 0.75",
    # eval-deep's verify shape: every character reuses one bracket matrix
    "EQ4 --d 45 --r 2 --q 0.95 --n-max 2 --x 0.5",
    # l(s, 0) is a DomainError: each character's line goes through check one
    # instance at a time and records it at every degree
    "EQ4 --d 15 --r 1 --q 0.5 --n-max 3 --x 0",
    # shift-sum and interpolation lines that refuse in their middle, at degree 18
    "EQ15 --d 15 --r 2 --q 0.9 --m-max 3 --n-max 30 --x 0.5 --y 0.25 --max-terms 700",
    "EQ4 --d 15 --r 2 --q 0.9 --n-max 30 --x 0.5 --max-terms 700",
    "EQ9 --d 15 --r 2 --q 0.9 --n-max 30 --x 0.5 --y 0.25 --max-terms 700",
    # l(-n, x) names its weight bound w = n - 0j where it overflows, at n = 1024
    "EQ4 --d 1 --q 0.5 --n-max 1030 --x 0.5",
    # the shift expansion's value is not finite at n = 818
    "EQ5 --d 3 --r 1 --q 0.5 --n-max 900 --x 0.5",
    # [-x]_q overflows before any plan
    "EQ15 --d 1 --r 1 --q 0.5 --m-max 1 --n-max 1 --x 2000 --y 0",
    # the sweep-degree workload's EQ15 shape
    "EQ15 --d 45 --r 2 --q 0.8 --m-max 7 --n-max 7 --x 1.5 --y 0",
    # exits 1: nine false FAILs at chi0 and m + n >= 17, where the rhs's rounding
    # and amplified truncation exceed the tolerance (ROADMAP F1)
    "EQ15 --d 15 --r 3 --q 0.5 --n-max 20 --m-max 20 --x 0.75 --y 0.25",
]

# verify --output {pretty,csv} --identity ...: every layout of a record
VERIFY_TEXT = [
    "T1 --d 3 --r 1 --q 0.5 --a 1 --b 3 --s 1.5 --x 1",
    "T1 --d 3 --q 0.5 --a 1 --b 3 --s 1 --x 0",
    "T2 --d 3 --r 1 --q 0.5 --a 1 --b 3 --n-max 6",
    "T2 --d 45 --r 4 --a 5 --b 3 --chi 3 --q 0.5",
    "T3 --d 3 --r 2 --q 0.5 --a 1 --b 3 --n-max 4",
    "EQ4 --d 3 --r 1 --q 0.5 --n-max 2 --x 0",
    "EQ9 --d 3 --r 1 --q 0.5 --n-max 4 --x 0.5 --y 0.25",
    "EQ12 --d 15 --r 2 --q 0.5 --a 1 --b 3 --n-max 2 --chi 4",
    "EQ15 --d 3 --r 1 --q 0.5 --m-max 3 --n-max 3 --x 0.5 --y 0.25",
]

# ... --output {pretty,json,csv}
ANY_FORMAT = [
    "char-list --d 1",
    "char-list --d 5",
    "char-list --d 45 --chi 7",
    "eval-qeuler --d 3 --chi 1 --r 2 --n 3 --q 0.5 --x 0.5",
    "eval-qeuler --d 15 --chi 4 --r 3 --n 10 --q 0.9 --x 1",
    "eval-lfun --d 3 --chi 1 --r 1 --s 1,1 --q 0.5 --x 1",
    "eval-lfun --d 5 --chi 2 --r 2 --s -0.5,0.5 --q 0.7 --x 0.25",
    "eval-powersum --d 3 --chi 1 --r 1 --upper 3 --n 1 --i 1 --q 0.5",
    "eval-powersum --d 5 --chi 3 --r 3 --upper 15 --n 4 --i 2 --q 0.7",
    "eval-powersum --d 1 --r 100 --upper 1 --n 0 --i 0 --q 0.5",
    # the benchmark's eval-deep shapes: long series at q 0.95 to 0.97
    "eval-qeuler --d 45 --chi 7 --r 3 --q 0.97 --n 20 --x 0.5",
    "eval-qeuler --d 15 --chi 0 --r 3 --q 0.97 --n 19 --x 0.75",  # real: imaginary part 0.0
    "eval-qeuler --d 1 --r 2 --q 0.97 --n 10 --x 1",
    "eval-lfun --d 45 --chi 17 --r 2 --q 0.95 --x 0.25 --s=-0.5,1.0",
    "eval-lfun --d 3 --chi 1 --r 1 --q 0.97 --x 0.5 --s -16",
]

# argvs that end in an error (exit 2 or 3) or at the edges of the flag rules
EDGES = [
    "eval-qeuler --d 3 --q 0.5 --n 1000000",
    "eval-lfun --d 3 --q 0.5 --s 0,400",
    "eval-lfun --d 3 --chi 1 --q 0.5 --s -300 --x 1e-300",
    "verify --identity T1 --d 1 --q 0.5 --a 1 --b 3 --s 1300 --x 1",
    "verify --identity T1 --d 3 --q 0.5 --a 1 --b 3 --s nan --x 1 --output json",
    "eval-lfun --d 3 --q 0.5 --s nan",
    "eval-lfun --d 3 --q 0.5 --s 1,nan",
    "eval-lfun --d 3 --q 0.5 --s inf",
    "verify --identity T2 --d 1 --q 0.5 --n-max 10001",
    "verify --identity EQ15 --d 1 --q 0.5 --m-max 10001",
    "verify --identity T3 --d 1 --r 100 --q 0.5 --n-max 1 --output json",
    "char-list --d 3003 --chi 0",
    "eval-powersum --d 3 --q 0.5 --r 3 --upper 10000 --n 1 --i 1",
    "eval-qeuler --d 1 --q 0.999 --n 0 --epsilon 1e-12 --max-terms 100",
    "verify --identity EQ4 --d 1 --q 0.9999999 --epsilon 1e-300 --max-terms 10000000",
    "verify --identity T2 --d 3 --q 0.5 --a 1 --b 3 --tolerance nan",
    "eval-powersum --d 3 --q 0.5 --r 1 --upper 1000000000000 --n 1 --i 1",
    "eval-powersum --d 5 --chi 1 --r 2 --upper 5 --n 100000 --i 100000 --q 0.9 --output json",
    "char-list --d 3 --out /nonexistent/x.txt",
    "eval-qeuler --d 1 --q 0.01 --r 100000 --n 0 --max-terms 10000000",
    "verify --identity T2 --d 1 --q 0.5 --a 1 --b 99999 --output json",
    "verify --identity T3 --d 45 --r 3 --q 0.5 --a 301 --b 1 --n-max 0 --output json",
    "verify --identity T2 --d 1 --q 0.5 --a 1 --b 3 --n-max 2 --tolerance 1e308 --output json",
    "eval-lfun --d 3 --chi 1 --r 2 --q 0.5 --s 0,400 --x 0.5 --output json",
    "verify --identity T2 --d 1 --r 1 --q 0.5 --a 3 --b 3 --n-max 1030 --x 1 --output json",
    "verify --identity EQ12 --d 1 --q 0.5 --a 1 --b 3 --n-max 1100",
    # lines that refuse in their middle, after degrees that evaluate
    "verify --identity EQ12 --d 15 --r 2 --q 0.6 --a 1 --b 3 --n-max 15 --max-terms 60",
    "verify --identity T3 --d 15 --r 2 --q 0.9 --a 1 --b 3 --n-max 30 --max-terms 300",
    # a power-sum side refuses as its widest cell E_n does, and names that cell's bound
    "verify --identity EQ13 --d 3 --r 2 --q 0.9 --a 1 --b 3 --n-max 40 --max-terms 200",
    # a power-sum side's i-sum is not finite at n = 546 in roles (1, 3), T3's rhs
    # here, and at n = 654 in roles (3, 1), EQ13's rhs here
    "verify --identity T3 --d 1 --r 1 --q 0.5 --a 3 --b 1 --n-max 1300 --output json",
    "verify --identity EQ13 --d 1 --r 1 --q 0.5 --a 1 --b 3 --n-max 1100 --output json",
    "eval-powersum --d 1 --r 1000000 --upper 1 --n 0 --i 0 --q 0.5",
    # grids past SWEEP_BUDGET instances, refused before any is listed
    "verify --identity T2 --d 3001 --q 0.5 --n-max 10000",
    "verify --identity EQ15 --d 1 --q 0.5 --m-max 10000 --n-max 10000",
    # the weight bounds of an l-function side's arguments, one array a side: at
    # x = 1e-17 the scalar [3e-17]_q is zero (exit 3), at x = 3e-17 none is
    "verify --identity T1 --d 3 --q 0.5 --a 1 --b 3 --s 1.5 --x 1e-17 --output json",
    "verify --identity T1 --d 3 --q 0.5 --a 1 --b 3 --s 1.5 --x 3e-17 --output json",
]

ARGVS = (
    [f"verify --output json --identity {a}" for a in VERIFY_JSON]
    + [f"verify --output {fmt} --identity {a}" for a in VERIFY_TEXT for fmt in ("pretty", "csv")]
    + [f"{a} --output {fmt}" for a in ANY_FORMAT for fmt in ("pretty", "json", "csv")]
    + EDGES
)


def _line(command: list[str], name: str) -> str:
    done = subprocess.run([sys.executable, *command], capture_output=True)
    out, err = (hashlib.sha256(data).hexdigest()[:16] for data in (done.stdout, done.stderr))
    return f"{done.returncode} {out} {err} {name}"


def _records(root: Path, argv: str) -> list[dict]:
    """The records of `verify --output json --identity ARGV` run in the
    checkout at root."""
    done = subprocess.run(
        [sys.executable, "-m", "qeuler", "verify", "--output", "json", "--identity",
         *shlex.split(argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
    return [json.loads(line) for line in done.stdout.splitlines()]


def _verdict(record: dict) -> str:
    return "error" if record["error"] else "PASS" if record["pass"] else "FAIL"


def _move(before, after) -> float:
    """|after - before| / |before| of one side, each a [re, im] pair; 0 where
    both are equal, inf where only before is 0."""
    old, new = complex(*before), complex(*after)
    return 0.0 if new == old else abs(new - old) / abs(old) if old else float("inf")


def compare(other: Path) -> int:
    flips = paired = 0
    largest = {side: (0.0, "") for side in ("lhs", "rhs")}
    for argv in VERIFY_JSON:
        before, after = _records(other, argv), _records(ROOT, argv)
        if len(before) != len(after):
            print(f"records: {argv} | {len(before)} -> {len(after)}")
        for old, new in zip(before, after):
            paired += 1
            where = f"{argv} | {json.dumps(new['instance'])}"
            if _verdict(old) != _verdict(new):
                flips += 1
                print(f"flip: {where} | {_verdict(old)} -> {_verdict(new)}")
            for side in largest:
                if old[side] is not None and new[side] is not None:
                    largest[side] = max(largest[side], (_move(old[side], new[side]), where))
    print(f"{flips} verdict flips over {paired} records")
    for side, (move, where) in largest.items():
        print(f"largest {side} move: {move:.3g}" + (f" at {where}" if move else ""))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Golden check of the qeuler command line.")
    parser.add_argument("--compare", metavar="OTHER_ROOT", type=Path,
                        help="diff the verify records of OTHER_ROOT against this checkout")
    other = parser.parse_args().compare
    if other is not None:
        return compare(other.resolve())
    for argv in ARGVS:
        print(_line(["-m", "qeuler", *shlex.split(argv)], argv), flush=True)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        print(_line([str(demo)], demo.relative_to(ROOT).as_posix()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

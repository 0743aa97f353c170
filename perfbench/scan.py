"""Run every operation a seed can draw, once, and report any that fails.

    PYTHONPATH=src python3 perfbench/scan.py [--part sweep-symmetry|sweep-degree|eval-deep]

The benchmark requires the share of failed operations to be the same for
every seed, so no seeded operation may fail: only the fixed operations of
workloads.py's fault list may.  The seeded choices are finite, and this tool
enumerates all of them in-process, checks each verify call's contract and
verdicts, and compares values and identity sides with the reference.  Two
shortcuts keep it to minutes, both stated in the output: the T1 sides at
d = 15 are compared on one instance per call, and an l(s, x) value is sent
to the reference only when the F1 rule, evaluated with the program's own
value, does not already show that double precision meets the check.  It
also prints the F1 classification of the eval-deep panel.  Exit status 1
when anything seeded failed.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import qeuler  # noqa: E402
import qeuler.cli  # noqa: E402

import checks  # noqa: E402
import workloads as W  # noqa: E402
from reference import Reference, matches, root_exponents  # noqa: E402
from worker import _call, _cli, _cutoffs  # noqa: E402

GROUPS = {d: qeuler.build_character_group(d) for d in W.GROUP_SIZES}
CHARS = {(d, c.label): (d, root_exponents(d, list(c.values)))
         for d, g in GROUPS.items() for c in g}
VALUES = {(d, c.label): list(c.values) for d, g in GROUPS.items() for c in g}


def _labels(d, every):
    return [None] if every else range(W.GROUP_SIZES[d])


def symmetry_argvs():
    for identity, d, r, q, pair, every, n_max, x in W.SYMMETRY_SLOTS:
        s_values = W.T1_S_VALUES if identity == "T1" else [None]
        pairs = (pair, pair[::-1]) if identity in W.SWAPPABLE else (pair,)
        xs = W.X_VALUES if x is None else (x,)
        for chi, p, x, s in itertools.product(_labels(d, every), pairs, xs, s_values):
            yield W._verify_argv(identity, d, r, q, p, chi, n_max, x=x, s=s)


def degree_argvs():
    for identity, d, r, q, pair, every, n_max, m_max, x, y in W.DEGREE_SLOTS:
        pairs = [None] if pair is None else [pair, pair[::-1]]
        xs = W.X_VALUES if x is None else (x,)
        ys = (y,) if y is not None or identity not in ("EQ9", "EQ15") else W.Y_VALUES
        for chi, p, x, y in itertools.product(_labels(d, every), pairs, xs, ys):
            yield W._verify_argv(identity, d, r, q, p, chi, n_max, m_max, x=x, y=y)


def deep_verify_argvs():
    for d in W.L_MODULI:
        for chi, x in itertools.product(range(W.GROUP_SIZES[d]), W.L_X_VALUES):
            yield W._verify_argv("EQ4", d, 2, 0.95, None, chi, 2, x=x)


def scan_verify(ref, argvs, report):
    for argv in argvs:
        out = _cli(qeuler, argv)
        p = checks.parse_argv(argv)
        records, verdicts, problems = checks.check_verify(
            argv, out["rc"], out["stdout"], W.GROUP_SIZES[int(p["d"])])
        problems += [f"instance {i} FAIL" for i, ok in enumerate(verdicts) if not ok]
        every = not (p["identity"] == "T1" and p["d"] == "15")
        for i in checks.sample_indices(argv, len(records), 0, every):
            misses, own = checks.check_sides(ref, CHARS, p["identity"], records[i])
            problems += misses + own
        report(" ".join(argv), problems)


def deep_value_ops():
    for q, r, window in W.e_slots():
        degrees, moduli = W.E_WINDOWS[window]
        for d in moduli:
            for chi, n, x in itertools.product(range(W.GROUP_SIZES[d]), degrees, W.E_X_VALUES):
                yield W._value_op("qeuler", d, chi, r, q, n, x)
    for q, r, s_class in W.l_slots():
        for d in W.L_MODULI:
            for chi, s, x in itertools.product(range(W.GROUP_SIZES[d]), W.L_S_VALUES[s_class],
                                               W.L_X_VALUES):
                yield W._value_op("lfun", d, chi, r, q, s, x)


def deep_powersum_ops():
    for d in W.L_MODULI:
        for chi, i, upper in itertools.product(range(W.GROUP_SIZES[d]),
                                               range(W.POWERSUM_N + 1), W.POWERSUM_UPPER):
            yield {"kind": "powersum", "d": d, "chi": chi, "r": 3, "q": 0.9,
                   "n": W.POWERSUM_N, "i": i, "upper": upper}


def value_problem(ref, op, value, cutoff):
    """None when the value passes; else a description with its F1 status."""
    if op["kind"] == "powersum":
        want = ref.power_sum(CHARS[(op["d"], op["chi"])], op["r"], op["n"], op["i"],
                             op["upper"], op["q"])
        return None if matches(complex(*value), want) else f"misses reference {complex(want)}"
    if isinstance(value, dict):
        return f"refused ({value['error']})"
    chi_values = VALUES[(op["d"], op["chi"])]
    if op["kind"] == "lfun" and not checks.double_precision_insufficient(
            op, chi_values, cutoff, 0.1 * abs(complex(*value))):
        return None  # rounding provably inside the tolerance, tail below 1e-10
    want = checks.reference_value(ref, CHARS, op)
    if matches(complex(*value), want):
        return None
    flagged = checks.double_precision_insufficient(op, chi_values, cutoff, want)
    return f"misses reference {complex(want)} (F1 rule {'flags' if flagged else 'does not flag'} it)"


def scan_values(ref, ops, report):
    ops = list(ops)
    cutoffs = _cutoffs(qeuler, GROUPS, [op for op in ops if op["kind"] != "powersum"])
    cutoffs = iter(cutoffs)
    for op in ops:
        if op["kind"] == "powersum":
            chi = GROUPS[op["d"]][op["chi"]]
            v = qeuler.power_sum(chi, op["r"], op["n"], op["i"], op["upper"],
                                 qeuler.QContext(op["q"]))
            value, cutoff = [v.real, v.imag], None
        else:
            value, cutoff = _call(qeuler, GROUPS, op), next(cutoffs)
        problem = value_problem(ref, op, value, cutoff)
        report(str(op), [problem] if problem else [])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", choices=W.WORKLOADS + ("all",), default="all")
    args = parser.parse_args()
    ref = Reference()
    counts = {"ops": 0, "failed": 0}

    def report(name, problems):
        counts["ops"] += 1
        if problems:
            counts["failed"] += 1
            print(f"FAIL {name}: {'; '.join(problems)}", flush=True)

    parts = W.WORKLOADS if args.part == "all" else (args.part,)
    if "sweep-symmetry" in parts:
        scan_verify(ref, symmetry_argvs(), report)
    if "sweep-degree" in parts:
        scan_verify(ref, degree_argvs(), report)
    if "eval-deep" in parts:
        scan_values(ref, deep_value_ops(), report)
        scan_values(ref, deep_powersum_ops(), report)
        scan_verify(ref, deep_verify_argvs(), report)
        panel = [W._value_op(*point, fault="F1") for point in W.F1_PANEL]
        for op, value, cutoff in zip(panel, (_call(qeuler, GROUPS, op) for op in panel),
                                     _cutoffs(qeuler, GROUPS, panel)):
            want = checks.reference_value(ref, CHARS, op)
            flagged = checks.double_precision_insufficient(op, VALUES[(op["d"], op["chi"])],
                                                           cutoff, want)
            ok = isinstance(value, list) and matches(complex(*value), want)
            print(f"panel {op}: {'passes' if ok else 'fails'}, "
                  f"F1 rule {'flags' if flagged else 'does not flag'} it")
    print(f"{counts['ops']} seeded operations, {counts['failed']} failed")
    return 1 if counts["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())

"""Checks of the program's outputs: the verify contract and the reference.

Nothing here compares against a stored copy of earlier output.  A verify
call is checked against the grid its argv defines (number, order and
parameters of the records), against the rules its records must obey (the
verdict follows residual <= tolerance, the exit code follows the verdicts),
and on a seeded sample of instances against the mpmath reference.
"""

from __future__ import annotations

import json
import random

from reference import Reference, matches, truncated_abs_sum

PAIRED = ("T1", "T2", "T3", "EQ12", "EQ13")
ROUNDING_UNIT = 2.0 ** -53


def parse_argv(argv: list[str]) -> dict:
    """The flags of a qeuler command line as a dict (command under 'command')."""
    out = {"command": argv[0]}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, _, value = token.partition("=")
        out[flag[2:].replace("-", "_")] = value if value else next(tokens)
    return out


def expected_instances(argv: list[str], group_size: int) -> list[dict]:
    """The instance records a verify argv must produce, in enumeration order."""
    p = parse_argv(argv)
    identity = p["identity"]
    d, r, q, x = int(p["d"]), int(p["r"]), float(p["q"]), float(p.get("x", 1.0))
    labels = [int(p["chi"])] if "chi" in p else range(group_size)
    n_max, m_max = int(p.get("n_max", 0)), int(p.get("m_max", 0))
    if identity == "T1":
        re, _, im = p["s"].partition(",")
        degrees = [{"s": [float(re), float(im or 0.0)]}]
    elif identity == "EQ15":
        degrees = [{"m": m, "n": n} for m in range(m_max + 1) for n in range(n_max + 1)]
    else:
        degrees = [{"n": n} for n in range(n_max + 1)]
    out = []
    for label in labels:
        for degree in degrees:
            inst = {"d": d, "chi": label, "r": r, "q": q}
            if identity in PAIRED:
                inst |= {"a": int(p.get("a", 1)), "b": int(p.get("b", 1))}
            inst |= degree | {"x": x}
            if identity in ("EQ9", "EQ15"):
                inst["y"] = float(p.get("y", 0.0))
            out.append(inst)
    return out


def check_verify(argv: list[str], rc: int, stdout: str, group_size: int):
    """(records, verdicts, problems) of one verify call.

    verdicts[i] is True for PASS; problems lists contract violations.
    A refusal (exit 3) yields no records and every verdict None.
    """
    expected = expected_instances(argv, group_size)
    identity = parse_argv(argv)["identity"]
    if rc == 3:
        return [], [None] * len(expected), []
    problems = []
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError as exc:
        return [], [False] * len(expected), [f"unparsable output ({exc})"]
    if len(records) != len(expected):
        problems.append(f"{len(records)} records, the grid has {len(expected)}")
    verdicts = []
    for i, want in enumerate(expected):
        rec = records[i] if i < len(records) else None
        if rec is None or rec.get("instance") != want or rec.get("identity_id") != identity:
            problems.append(f"record {i} is not instance {want}")
            verdicts.append(False)
            continue
        if rec["error"] is not None:
            problems.append(f"record {i}: error {rec['error']}")
            verdicts.append(False)
            continue
        residual = abs(complex(*rec["lhs"]) - complex(*rec["rhs"]))
        if residual != rec["residual"] or rec["pass"] != (residual <= rec["tolerance"]):
            problems.append(f"record {i}: verdict does not follow residual and tolerance")
        verdicts.append(bool(rec["pass"]))
    want_rc = 0 if all(verdicts) else 1
    if rc != want_rc:
        problems.append(f"exit code {rc}, the verdicts call for {want_rc}")
    return records, verdicts, problems


def sample_indices(argv: list[str], count: int, seed: int, every: bool) -> list[int]:
    """Which instances of a call the reference checks: all, or one seeded pick."""
    if every:
        return list(range(count))
    return [random.Random(f"{seed}/{' '.join(argv)}").randrange(count)]


def check_sides(ref: Reference, chars: dict, identity: str, record: dict):
    """Compare one record's sides with the reference sides.

    Returns (misses, reference_problems): the sides the program got wrong,
    and whether the two reference sides themselves disagree.
    """
    inst = record["instance"]
    lhs_ref, rhs_ref = ref.sides(identity, inst, chars[(inst["d"], inst["chi"])])
    own = [] if matches(complex(lhs_ref), rhs_ref, 1e-12) else [
        f"reference sides disagree for {identity} {inst}"]
    misses = [f"{identity} {inst}: {name} {complex(*got)} misses reference {complex(want)}"
              for name, got, want in (("lhs", record["lhs"], lhs_ref),
                                      ("rhs", record["rhs"], rhs_ref))
              if not matches(complex(*got), want)]
    return misses, own


def reference_value(ref: Reference, chars: dict, op: dict):
    chi = chars[(op["d"], op["chi"])]
    if op["kind"] == "qeuler":
        return ref.qeuler(chi, op["r"], op["n"], op["x"], op["q"])
    if op["kind"] == "lfun":
        return ref.lfun(chi, op["r"], complex(*op["s"]), op["x"], op["q"])
    return ref.power_sum(chi, op["r"], op["n"], op["i"], op["upper"], op["q"])


def double_precision_insufficient(op: dict, chi_values: list[complex], cutoff: int,
                                  ref_value) -> bool:
    """The F1 rule: (M+n+r) 2^-53 sum|t_m| > 1e-7 max(1, |ref|), with n the
    degree of E_n or the smallest integer at least |s| of l(s, x)."""
    if op["kind"] == "qeuler":
        n, s = op["n"], -op["n"]
    else:
        s = complex(*op["s"])
        n = int(-(-abs(s) // 1))
    abs_sum = truncated_abs_sum(chi_values, op["r"], s, op["x"], op["q"], cutoff)
    return (cutoff + n + op["r"]) * ROUNDING_UNIT * abs_sum > 1e-7 * max(1.0, abs(complex(ref_value)))

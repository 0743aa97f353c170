"""Seeded inputs of the three workloads.

A workload is a round of operations that a run repeats until its time is up.
Each round is built from a fixed table of slots.  A slot fixes what sets the
cost of an operation (identity, modulus, order, q, degree range, odd pair up
to orientation); the seed picks what leaves the cost alone (character, x, y,
the orientation of the pair, the signs of the exponent s, and which point is
evaluated at each degree of a narrow window).  So every seed gives the same
number of operations per round, at nearly the same cost, and the run-to-run
spread measures the program rather than the draw.  The operations of the two
known faults (F1_VERIFY, F2_VERIFY, F1_PANEL) are fixed and do not depend on
the seed.

Every value a seed can pick lies in a finite set, so scan.py can run every
possible operation once and confirm that none of them fails.
"""

from __future__ import annotations

import random

# How many characters each modulus has (phi(d)); labels are 0 .. phi(d)-1.
GROUP_SIZES = {1: 1, 3: 2, 15: 8, 45: 24}

X_VALUES = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
Y_VALUES = (0.0, 0.25, 0.5, 1.0)
# the planner's cost depends on |Re s| and |Im s| only, so the seed picks signs
T1_S_VALUES = ((1.5, 0.5), (1.5, -0.5), (-1.5, 0.5), (-1.5, -0.5))

# sweep-symmetry: (identity, d, r, q, (a, b), every character?, n-max, x).
# Most calls are sized so that their own work, not the start of a fresh
# interpreter, takes most of their time, and the median call is one of them.
# The cost of a d = 15 sweep moves by half with x, so those slots fix x; the
# d = 3 call draws x.
SYMMETRY_SLOTS = (
    ("T2", 15, 2, 0.7, (1, 3), True, 12, 1.0),
    ("EQ13", 15, 2, 0.7, (3, 5), True, 10, 1.0),
    ("EQ12", 15, 2, 0.6, (1, 3), True, 15, 0.5),
    ("T2", 15, 1, 0.7, (3, 5), True, 15, 1.0),
    ("T1", 15, 2, 0.7, (1, 5), True, 0, 0.75),
    ("T2", 3, 2, 0.7, (3, 5), True, 20, None),
)
# T1, T2 and T3 evaluate both orientations of (a, b), so the seed may swap the
# pair; EQ12 and EQ13 evaluate one, whose cost differs, so they keep theirs.
SWAPPABLE = ("T1", "T2", "T3")

# sweep-degree: (identity, d, r, q, (a, b), every character?, n-max, m-max,
# x, y).  The calls over every character fix x and y, which move their cost;
# the single-character calls draw the character, x and y.
DEGREE_SLOTS = (
    ("EQ15", 15, 3, 0.9, None, True, 5, 5, 1.0, 0.25),
    ("EQ15", 45, 2, 0.8, None, True, 7, 7, 1.5, 0.0),
    ("EQ5", 15, 3, 0.9, None, True, 20, 0, 0.5, None),
    ("EQ9", 15, 3, 0.9, None, True, 20, 0, 0.75, 1.0),
    ("T3", 15, 3, 0.9, (1, 5), True, 5, 0, 1.5, None),
    ("T3", 45, 2, 0.7, (1, 3), False, 5, 0, None, None),
    ("EQ4", 15, 1, 0.5, None, True, 6, 0, None, None),
)

# eval-deep E_n(x) slots: (q, r, degree window, moduli); each appears E_REPEATS
# times a round, with its own draw, so a round holds enough work to time
E_WINDOWS = {"low": ((0, 1, 2), (3, 15, 45)),
             "mid": ((10, 11), (15, 45)),
             "high": ((19, 20), (15, 45))}
E_X_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
E_REPEATS = 6
DEEP_QS = (0.9, 0.95, 0.97)
DEEP_RS = (1, 2, 3)
# eval-deep l(s, x) slots: (q, r, exponent class), moduli 15 and 45
L_S_VALUES = {"real": ((-1.5, 0.0), (1.5, 0.0)),
              "complex": ((-0.5, 1.0), (-0.5, -1.0), (0.5, 1.0), (0.5, -1.0))}
L_X_VALUES = (0.25, 0.5, 0.75, 1.0)
L_MODULI = (15, 45)
POWERSUM_N = 6
POWERSUM_UPPER = (9, 15)

# Operations that fail today because of a fault of the program, named so a
# run can tell an explained failure from an unexplained one.
#   F1: the certificate omits floating-point rounding, so values in the
#       cancellation regime miss their reported tail bound and identities
#       report false FAILs.
#   F2: EQ4 compares against an absolute tolerance of 1e-8 whatever the
#       magnitude of its sides.
F1_VERIFY = ("verify", "--identity", "T2", "--d", "1", "--r", "2", "--q", "0.97",
             "--a", "1", "--b", "3", "--n-max", "12")
F2_VERIFY = ("verify", "--identity", "EQ4", "--d", "45", "--r", "3", "--q", "0.9",
             "--n-max", "9")
# eval-deep panel of F1 points, fixed: (kind, d, chi, r, q, n or s, x)
F1_PANEL = (
    ("qeuler", 1, 0, 1, 0.95, 20, 0.0),
    ("qeuler", 1, 0, 1, 0.97, 20, 0.5),
    ("qeuler", 1, 0, 2, 0.97, 10, 1.0),
    ("qeuler", 3, 1, 1, 0.97, 20, 1.0),
    ("qeuler", 3, 1, 3, 0.97, 12, 0.5),
    ("qeuler", 15, 0, 3, 0.97, 6, 0.5),  # flagged, and passes today
    ("lfun", 1, 0, 2, 0.95, (-12.0, 0.0), 1.0),
    ("lfun", 3, 1, 1, 0.97, (-16.0, 0.0), 0.5),
)

WORKLOADS = ("sweep-symmetry", "sweep-degree", "eval-deep")
SETUP_MODULI = {"sweep-symmetry": (1, 3, 15), "sweep-degree": (15, 45),
                "eval-deep": (1, 3, 15, 45)}


def _fmt(value: float) -> str:
    return repr(float(value))


def _s_flag(s) -> str:
    # one token: argparse reads a separate "-0.5,1.0" as an option, not a value
    return f"--s={_fmt(s[0])},{_fmt(s[1])}"


def _verify_argv(identity, d, r, q, pair, chi, n_max, m_max=0, x=None, y=None, s=None):
    argv = ["verify", "--identity", identity, "--d", str(d), "--r", str(r), "--q", _fmt(q)]
    if chi is not None:
        argv += ["--chi", str(chi)]
    if pair is not None:
        argv += ["--a", str(pair[0]), "--b", str(pair[1])]
    if identity == "T1":
        argv.append(_s_flag(s))
    else:
        argv += ["--n-max", str(n_max)]
    if m_max:
        argv += ["--m-max", str(m_max)]
    if x is not None:
        argv += ["--x", _fmt(x)]
    if y is not None:
        argv += ["--y", _fmt(y)]
    return argv + ["--output", "json"]


def _pick_chi(rng: random.Random, d: int, every: bool):
    return None if every else rng.randrange(GROUP_SIZES[d])


def symmetry_calls(seed: int) -> list[dict]:
    """verify calls of one sweep-symmetry round, the F1 call last."""
    rng = random.Random(f"sweep-symmetry/{seed}")
    calls = []
    for identity, d, r, q, pair, every, n_max, x in SYMMETRY_SLOTS:
        chi = _pick_chi(rng, d, every)
        if identity in SWAPPABLE and rng.random() < 0.5:
            pair = pair[::-1]
        x = rng.choice(X_VALUES) if x is None else x
        s = rng.choice(T1_S_VALUES) if identity == "T1" else None
        calls.append({"argv": _verify_argv(identity, d, r, q, pair, chi, n_max, x=x, s=s),
                      "fault": None})
    calls.append({"argv": list(F1_VERIFY) + ["--output", "json"], "fault": "F1"})
    return calls


def degree_calls(seed: int) -> list[dict]:
    """verify calls of one sweep-degree round, the F2 call last."""
    rng = random.Random(f"sweep-degree/{seed}")
    calls = []
    for identity, d, r, q, pair, every, n_max, m_max, x, y in DEGREE_SLOTS:
        chi = _pick_chi(rng, d, every)
        if pair is not None and rng.random() < 0.5:
            pair = pair[::-1]
        x = rng.choice(X_VALUES) if x is None else x
        if identity in ("EQ9", "EQ15") and y is None:
            y = rng.choice(Y_VALUES)
        calls.append({"argv": _verify_argv(identity, d, r, q, pair, chi, n_max, m_max,
                                           x=x, y=y),
                      "fault": None})
    calls.append({"argv": list(F2_VERIFY) + ["--output", "json"], "fault": "F2"})
    return calls


def _value_op(kind, d, chi, r, q, arg, x, fault=None) -> dict:
    op = {"kind": kind, "d": d, "chi": chi, "r": r, "q": q, "x": x, "fault": fault}
    if kind == "qeuler":
        op["n"] = arg
    else:
        op["s"] = list(arg)
    return op


def e_slots():
    for q in DEEP_QS:
        for r in DEEP_RS:
            for window in E_WINDOWS:
                yield q, r, window


def l_slots():
    for q in DEEP_QS:
        for r in DEEP_RS:
            for s_class in L_S_VALUES:
                yield q, r, s_class


def deep_ops(seed: int) -> list[dict]:
    """Library calls of one eval-deep round: seeded slots, then the F1 panel."""
    rng = random.Random(f"eval-deep/{seed}")
    ops = []
    for repeat in range(E_REPEATS):
        for q, r, window in e_slots():
            degrees, moduli = E_WINDOWS[window]
            d = rng.choice(moduli)
            # every degree of the window appears equally often in a round; the
            # seed picks the character and x evaluated at each
            ops.append(_value_op("qeuler", d, rng.randrange(GROUP_SIZES[d]), r, q,
                                 degrees[repeat % len(degrees)], rng.choice(E_X_VALUES)))
    for q, r, s_class in l_slots():
        d = rng.choice(L_MODULI)
        ops.append(_value_op("lfun", d, rng.randrange(GROUP_SIZES[d]), r, q,
                             rng.choice(L_S_VALUES[s_class]), rng.choice(L_X_VALUES)))
    ops += [_value_op(*point, fault="F1") for point in F1_PANEL]
    return ops


def eval_argv(op: dict) -> list[str]:
    """The eval-qeuler or eval-lfun command line of a library op."""
    argv = [f"eval-{op['kind']}", "--d", str(op["d"]), "--chi", str(op["chi"]),
            "--r", str(op["r"]), "--q", _fmt(op["q"]), "--x", _fmt(op["x"])]
    if op["kind"] == "qeuler":
        argv += ["--n", str(op["n"])]
    else:
        argv.append(_s_flag(op["s"]))
    return argv + ["--output", "json"]


def deep_cli_ops(seed: int) -> list[dict]:
    """The CLI calls of one eval-deep round, each a fresh process: E_n(x) from
    the heaviest slot, a complex-s l(s, x), one power sum, and one EQ4 verify
    of l(-n, x) = E_n(x) at three degrees."""
    rng = random.Random(f"eval-deep-cli/{seed}")
    degrees, moduli = E_WINDOWS["high"]
    d = rng.choice(moduli)
    e_op = _value_op("qeuler", d, rng.randrange(GROUP_SIZES[d]), 3, 0.97,
                     rng.choice(degrees), rng.choice(E_X_VALUES))
    d = rng.choice(L_MODULI)
    l_op = _value_op("lfun", d, rng.randrange(GROUP_SIZES[d]), 2, 0.95,
                     rng.choice(L_S_VALUES["complex"]), rng.choice(L_X_VALUES))
    d = rng.choice(L_MODULI)
    ps_op = {"kind": "powersum", "d": d, "chi": rng.randrange(GROUP_SIZES[d]), "r": 3,
             "q": 0.9, "n": POWERSUM_N, "i": rng.randrange(POWERSUM_N + 1),
             "upper": rng.choice(POWERSUM_UPPER), "fault": None}
    ps_op["argv"] = ["eval-powersum", "--d", str(ps_op["d"]), "--chi", str(ps_op["chi"]),
                     "--r", "3", "--q", "0.9", "--upper", str(ps_op["upper"]),
                     "--n", str(POWERSUM_N), "--i", str(ps_op["i"]), "--output", "json"]
    d = rng.choice(L_MODULI)
    verify_op = {"kind": "verify", "fault": None,
                 "argv": _verify_argv("EQ4", d, 2, 0.95, None, rng.randrange(GROUP_SIZES[d]),
                                      2, x=rng.choice(L_X_VALUES))}
    return [dict(op, argv=eval_argv(op)) for op in (e_op, l_op)] + [ps_op, verify_op]

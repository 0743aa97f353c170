"""Command-line front end: evaluation, tabulation, and identity sweeps.

Commands
    char-list      print the character group modulo an odd d
    eval-qeuler    evaluate one q-Euler polynomial value
    eval-lfun      evaluate the multiple q-l-function at complex s
    eval-powersum  evaluate one alternating character power sum
    verify         sweep one identity over a parameter grid

verify checks one identity (T1 T2 T3 EQ4 EQ5 EQ9 EQ12 EQ13 EQ15) at every
grid point its flags define: an instance passes when |lhs - rhs| <= tol *
max(|lhs|, |rhs|, 1), tol being --tolerance or the identity's default (1e-7;
1e-8 for EQ4, EQ12, EQ13), with both sides evaluated at series budget
--epsilon.  --s takes 're' or 're,im'; --s -0.5,0.5 equals --s=-0.5,0.5.

Each flag's rule is its argparse type (an odd positive --d, --a, --b; --q in
(0,1); a finite positive --epsilon; a finite --x, --y, --s; a --tolerance in
[0, 1]; --n-max and --m-max at most 10^4; ...); the parser raises
UsageError, one path for all.  Exit codes: 0 success or all instances passed,
1 at least one identity instance failed, 2 invalid usage or an unwritable
--out, 3 numeric infeasibility (no certified truncation within the term
budget, a q^a that underflows to zero, a weight bound, identity side or power
sum that is not a finite double, or a work budget overrun).

Output is reproducible byte for byte for a fixed argv: JSON uses shortest
round-trip float formatting and fixed field order.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import itertools
import json
import sys

from .characters import build_character_group, group_order
from .errors import BudgetExceeded, DomainError, PlanInfeasible, UsageError
from .identities import IDENTITY_IDS, SweepGrid, power_sum, run_suite
from .lfun import lfun_value
from .polynomials import qeuler_value
from .qnum import DEFAULT_EPSILON, DEFAULT_MAX_TERMS, QContext
from .report import suite_passed

OUTPUT_FORMATS = ("pretty", "json", "csv")
_I_RULE = "must satisfy 0 <= i <= n"
# (refuses, message) rules of _flag
_POSITIVE = (lambda v: v < 1, "must be a positive integer")
_NONNEGATIVE = (lambda v: v < 0, "must be nonnegative")
_FINITE = (lambda v: not cmath.isfinite(v), "must be finite")
# one degree axis; run_suite bounds the whole sweep by identities.SWEEP_BUDGET
_DEGREE_CEILING = (lambda v: v > 10 ** 4, "must be at most 10000")


def _parse_complex(text: str) -> complex:
    """Accept 're' or 're,im'."""
    try:
        return complex(*(float(part) for part in text.split(",")))
    except (ValueError, TypeError):  # a part that is no float, or more than two parts
        raise UsageError(f"--s expects 're' or 're,im', got {text!r}") from None


def _flag(flag: str, parse, *rules):
    """The argparse type of one flag: parse the text, then raise UsageError
    "<flag> <message>" at the first (refuses, message) rule that refuses it."""
    def convert(text: str):
        value = parse(text)
        for refuses, message in rules:
            if refuses(value):
                raise UsageError(f"{flag} {message}")
        return value

    convert.__name__ = parse.__name__  # argparse's "invalid int value: 'x'"
    return convert


def _odd(flag: str):
    """An odd positive integer."""
    return _flag(flag, int, (_POSITIVE[0], f"{_POSITIVE[1]}; {flag} must be odd"),
                 (lambda v: v % 2 == 0, "must be odd"))


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qeuler",
        description="q-Euler polynomials, q-l-functions, and symmetry identity sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--d", type=_odd("--d"), required=True, help="odd character modulus")
        p.add_argument("--chi", type=_flag("--chi", int, _NONNEGATIVE), default=None,
                       help="character label (default: principal for eval, all for verify)")
        p.add_argument("--output", choices=OUTPUT_FORMATS, default="pretty")
        p.add_argument("--out", dest="out_path", default=None,
                       help="write records to this file instead of stdout")

    p_char = sub.add_parser("char-list", help="list all characters modulo d")
    add_common(p_char)

    def add_eval_common(p: argparse.ArgumentParser) -> None:
        add_common(p)
        p.add_argument("--r", type=_flag("--r", int, _POSITIVE), default=1,
                       help="series order (>= 1)")
        p.add_argument("--q", type=_flag("--q", float, (lambda v: not 0.0 < v < 1.0,
                                                        "must lie in (0,1)")),
                       required=True, help="deformation parameter in (0,1)")
        p.add_argument("--epsilon", type=_flag("--epsilon", float, (lambda v: not v > 0.0,
                                                                    "must be positive"), _FINITE),
                       default=DEFAULT_EPSILON, help="series truncation budget")
        p.add_argument("--max-terms", type=_flag("--max-terms", int, _NONNEGATIVE),
                       default=DEFAULT_MAX_TERMS, help="hard cap on series terms")

    p_qe = sub.add_parser("eval-qeuler", help="evaluate E_n(x)")
    add_eval_common(p_qe)
    p_qe.add_argument("--n", type=_flag("--n", int, _NONNEGATIVE), required=True,
                      help="degree (>= 0)")
    p_qe.add_argument("--x", type=_flag("--x", float, _NONNEGATIVE, _FINITE), default=0.0,
                      help="argument (>= 0)")

    p_lf = sub.add_parser("eval-lfun", help="evaluate l(s, x)")
    add_eval_common(p_lf)
    p_lf.add_argument("--s", type=_flag("--s", _parse_complex, _FINITE), required=True,
                      help="complex exponent 're' or 're,im'")
    p_lf.add_argument("--x", type=_flag("--x", float, (lambda v: v <= 0.0,
                                                       "must be strictly positive"), _FINITE),
                      default=1.0, help="argument (> 0)")

    p_ps = sub.add_parser("eval-powersum", help="evaluate S_{n,i}(upper)")
    add_eval_common(p_ps)
    p_ps.add_argument("--upper", type=_flag("--upper", int, _POSITIVE), required=True,
                      help="exclusive tuple bound (>= 1)")
    p_ps.add_argument("--n", type=_flag("--n", int, _NONNEGATIVE), required=True)
    p_ps.add_argument("--i", type=_flag("--i", int, (_NONNEGATIVE[0], _I_RULE)), required=True,
                      help="bracket power (0 <= i <= n)")

    p_v = sub.add_parser("verify", help="sweep one identity over a grid")
    add_eval_common(p_v)
    p_v.add_argument("--identity", choices=IDENTITY_IDS, required=True)
    p_v.add_argument("--a", type=_odd("--a"), default=1, help="odd symmetry parameter")
    p_v.add_argument("--b", type=_odd("--b"), default=1, help="odd symmetry parameter")
    p_v.add_argument("--n-max", type=_flag("--n-max", int, _NONNEGATIVE, _DEGREE_CEILING),
                     default=0, help="sweep degrees n = 0..n-max")
    p_v.add_argument("--m-max", type=_flag("--m-max", int, _NONNEGATIVE, _DEGREE_CEILING),
                     default=0, help="sweep degrees m = 0..m-max (EQ15)")
    p_v.add_argument("--s", type=_flag("--s", _parse_complex, _FINITE), default=None,
                     help="exponent for T1, 're' or 're,im'")
    p_v.add_argument("--x", type=_flag("--x", float, _NONNEGATIVE, _FINITE), default=1.0)
    p_v.add_argument("--y", type=_flag("--y", float, _NONNEGATIVE, _FINITE), default=0.0)
    p_v.add_argument("--tolerance", type=_flag("--tolerance", float, _NONNEGATIVE, _FINITE,
                                               (lambda v: v > 1.0, "must be at most 1")),
                     default=None, help="relative tolerance (default: the identity's own)")
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse and validate; raises UsageError on any bad input.  Each flag's
    own rule is its argparse type; only the rules across flags are here."""
    argv = list(argv)
    # argparse takes a separate "-0.5,0.5" for an option: glue it to --s
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--s":
            argv[i - 1:i + 1] = [f"--s={argv[i]}"]
    args = build_parser().parse_args(argv)
    if args.command == "eval-powersum" and args.i > args.n:
        raise UsageError(f"--i {_I_RULE}")
    if args.command == "verify" and args.identity == "T1" and args.s is None:
        raise UsageError("--s is required for identity T1")
    return args


def _check_chi(args: argparse.Namespace) -> None:
    """Check --d and --chi against the group size phi(--d) without building the group."""
    size = group_order(args.d)
    if args.chi is not None and args.chi >= size:
        raise UsageError(f"--chi must be below the group size {size}")


def _resolve_group(args: argparse.Namespace):
    """The character group modulo --d, once --chi is checked against its size."""
    _check_chi(args)
    return build_character_group(args.d)


def _emit(chunks, out_path: str | None) -> None:
    """Write text chunks to stdout or the file --out names, each as it comes."""
    with contextlib.nullcontext(sys.stdout) if out_path is None else open(out_path, "w") as fh:
        try:
            fh.writelines(chunks)
        except BrokenPipeError:  # the reader left: drop the rest, and the exit-time flush
            sys.stdout = None


def _csv(rows) -> str:
    """CSV of rows, one rule per cell: text as it is, None empty, anything else
    its json.dumps (a finite float's repr, a bool's true or false)."""
    import csv  # here, so that only --output csv loads it

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [c if isinstance(c, str) else "" if c is None else json.dumps(c) for c in row]
        for row in rows)
    return buf.getvalue()


def _eval_record(args: argparse.Namespace, params: dict, value: complex) -> str:
    if args.output == "json":
        record = {"command": args.command} | params | {"value": [value.real, value.imag]}
        return json.dumps(record) + "\n"
    if args.output == "csv":
        return _csv([list(params) + ["value_re", "value_im"],
                     [*params.values(), value.real, value.imag]])
    return ("".join(f"{k} = {v}\n" for k, v in params.items())
            + f"value = {value.real!r} + {value.imag!r}i\n")


def _run_char_list(args: argparse.Namespace) -> int:
    group = _resolve_group(args)
    chars = group.characters if args.chi is None else [group[args.chi]]
    if args.output == "json":
        head, rows = "", (json.dumps(c.to_json_dict()) + "\n" for c in chars)
    elif args.output == "csv":
        head = "d,label,residue,re,im\n"
        rows = (_csv([c.modulus_d, c.label, m, v.real, v.imag]
                     for m, v in enumerate(c.values)) for c in chars)
    else:
        head = f"character group mod {args.d}: {len(group)} characters\n"
        rows = (f"chi_{c.label}: " + "  ".join(f"{v.real:+.3f}{v.imag:+.3f}i" for v in c.values)
                + "\n" for c in chars)
    _emit(itertools.chain([head], rows), args.out_path)  # one character at a time
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    _check_chi(args)  # run_suite builds the group
    grid = SweepGrid(
        d_values=(args.d,),
        q_values=(args.q,),
        r_values=(args.r,),
        chi_labels=None if args.chi is None else (args.chi,),
        ab_pairs=((args.a, args.b),),
        n_values=tuple(range(args.n_max + 1)),
        s_values=() if args.s is None else (args.s,),
        m_values=tuple(range(args.m_max + 1)),
        x_values=(args.x,),
        y_values=(args.y,),
    )
    reports = run_suite(args.identity, grid, args.epsilon, args.max_terms,
                        rel_tol=args.tolerance)
    if args.output == "json":
        text = "".join(r.to_json_line() + "\n" for r in reports)
    elif args.output == "csv":
        text = _csv([["identity", "instance", "residual", "tolerance", "pass"],
                     *([r.identity_id, r.to_json_dict()["instance"], r.residual, r.tolerance,
                        r.passed] for r in reports)])
    else:
        lines = []
        for r in reports:
            tag = "PASS" if r.passed else "FAIL"
            inst = " ".join(f"{k}={v}" for k, v in r.instance.items())
            if r.error is not None:
                lines.append(f"{tag} {r.identity_id} {inst} error: {r.error}")
            else:
                lines.append(f"{tag} {r.identity_id} {inst} "
                             f"residual={r.residual:.3e} tol={r.tolerance:.3e}")
        n_pass = sum(r.passed for r in reports)
        lines.append(f"{n_pass}/{len(reports)} instances passed")
        text = "\n".join(lines) + "\n"
    _emit([text], args.out_path)
    return 0 if suite_passed(reports) else 1


def run(args: argparse.Namespace) -> int:
    if args.command == "char-list":
        return _run_char_list(args)
    if args.command == "verify":
        return _run_verify(args)

    ctx = QContext(args.q)
    chi = _resolve_group(args)[args.chi or 0]
    if args.command == "eval-qeuler":
        value = qeuler_value(chi, args.r, args.n, args.x, ctx,
                             args.epsilon, args.max_terms)
        params = {"d": args.d, "chi": chi.label, "r": args.r, "n": args.n,
                  "q": args.q, "x": args.x, "epsilon": args.epsilon}
    elif args.command == "eval-lfun":
        value = lfun_value(chi, args.r, args.s, args.x, ctx, args.epsilon, args.max_terms)
        params = {"d": args.d, "chi": chi.label, "r": args.r, "s": [args.s.real, args.s.imag],
                  "q": args.q, "x": args.x, "epsilon": args.epsilon}
    else:  # eval-powersum
        value = power_sum(chi, args.r, args.n, args.i, args.upper, ctx)
        params = {"d": args.d, "chi": chi.label, "r": args.r, "n": args.n,
                  "i": args.i, "upper": args.upper, "q": args.q}
    _emit([_eval_record(args, params, value)], args.out_path)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return run(parse_args(sys.argv[1:] if argv is None else argv))
    except SystemExit:  # only --help exits; every usage error raises UsageError
        return 0
    except (UsageError, DomainError, PlanInfeasible, BudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (PlanInfeasible, BudgetExceeded)) else 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeuler import UsageError
from qeuler.cli import main, parse_args


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_args_happy_path():
    args = parse_args([
        "verify", "--identity", "T2", "--d", "3", "--chi", "1", "--r", "1",
        "--q", "0.5", "--a", "1", "--b", "3", "--n-max", "6",
    ])
    assert args.command == "verify"
    assert args.identity == "T2"
    assert (args.d, args.chi, args.r) == (3, 1, 1)
    assert (args.a, args.b, args.n_max) == (1, 3, 6)


@pytest.mark.parametrize("argv,needle", [
    (["eval-qeuler", "--d", "1", "--q", "1.5", "--n", "0"], "--q must lie in (0,1)"),
    (["eval-qeuler", "--d", "4", "--q", "0.5", "--n", "0"], "--d must be odd"),
    (["verify", "--identity", "T2", "--d", "3", "--q", "0.5", "--a", "2"], "--a must be odd"),
    (["verify", "--identity", "T2", "--d", "3", "--q", "0.5", "--b", "6"], "--b must be odd"),
    (["eval-powersum", "--d", "3", "--q", "0.5", "--upper", "3", "--n", "1", "--i", "2"],
     "--i must satisfy 0 <= i <= n"),
    (["verify", "--identity", "T1", "--d", "3", "--q", "0.5"], "--s is required"),
    (["eval-lfun", "--d", "3", "--q", "0.5", "--s", "nope"], "--s expects"),
    (["verify", "--identity", "T2", "--d", "3", "--q", "0.5", "--x", "nan"], "--x must be finite"),
    (["verify", "--identity", "T2", "--d", "3", "--q", "0.5", "--x", "inf"], "--x must be finite"),
    (["verify", "--identity", "EQ9", "--d", "3", "--q", "0.5", "--y", "nan"], "--y must be finite"),
    (["eval-qeuler", "--d", "3", "--q", "0.5", "--n", "1", "--x", "inf"], "--x must be finite"),
    (["eval-lfun", "--d", "3", "--q", "0.5", "--s", "1", "--x", "nan"], "--x must be finite"),
    (["verify", "--identity", "T1", "--d", "3", "--q", "0.5", "--a", "1", "--b", "3",
      "--s", "nan", "--x", "1", "--output", "json"], "--s must be finite"),
    (["eval-lfun", "--d", "3", "--q", "0.5", "--s", "nan"], "--s must be finite"),
    (["eval-lfun", "--d", "3", "--q", "0.5", "--s", "1,nan"], "--s must be finite"),
    (["eval-lfun", "--d", "3", "--q", "0.5", "--s", "inf"], "--s must be finite"),
    (["verify", "--identity", "T2", "--d", "1", "--q", "0.5", "--n-max", "10000000000"],
     "--n-max must be at most 10000"),
    (["verify", "--identity", "EQ15", "--d", "1", "--q", "0.5", "--m-max", "10001"],
     "--m-max must be at most 10000"),
    (["char-list", "--d", "3003"], "exceeds the construction bound"),
    (["verify", "--identity", "T2", "--d", "3", "--q", "0.5", "--a", "1", "--b", "3",
      "--tolerance", "nan"], "--tolerance must be finite"),
    (["verify", "--identity", "T2", "--d", "3", "--q", "0.5", "--a", "1", "--b", "3",
      "--tolerance", "inf"], "--tolerance must be finite"),
    (["verify", "--identity", "T2", "--d", "3", "--q", "0.5", "--a", "1", "--b", "3",
      "--tolerance=-1"], "--tolerance must be nonnegative"),
    (["eval-lfun", "--d", "3", "--q", "0.5", "--s", "1,2,3"], "--s expects"),
    (["eval-lfun", "--d", "3", "--q", "0.5", "--s", "1,"], "--s expects"),
    (["eval-lfun", "--d", "3", "--q", "0.5", "--s", ""], "--s expects"),
    (["eval-qeuler", "--d", "3", "--q", "0.5", "--n", "1", "--epsilon", "inf"],
     "--epsilon must be finite"),
    (["verify", "--identity", "T2", "--d", "1", "--q", "0.5", "--a", "1", "--b", "3",
      "--n-max", "2", "--tolerance", "1e308", "--output", "json"], "--tolerance must be at most 1"),
])
def test_usage_errors(capsys, argv, needle):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert needle in err


def test_unknown_flag_exits_2(capsys):
    assert main(["eval-qeuler", "--nonsense", "1"]) == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(UsageError, match="unrecognized arguments: --nonsense"):
        parse_args(["eval-qeuler", "--d", "3", "--q", "0.5", "--n", "0", "--nonsense", "1"])


def test_char_list_json(capsys):
    code, out, _ = run_cli(capsys, ["char-list", "--d", "3", "--output", "json"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert records[0]["d"] == 3
    assert records[0]["values"] == [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
    assert records[1]["values"] == [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]


@pytest.mark.parametrize("output", ["pretty", "json", "csv"])
def test_char_list_file_holds_the_stdout_bytes(capsys, tmp_path, output):
    argv = ["char-list", "--d", "15", "--output", output]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    path = tmp_path / "chars.txt"
    assert run_cli(capsys, argv + ["--out", str(path)])[:2] == (0, "")
    assert path.read_text() == out
    # phi(15) = 8 characters: a header line and one line per character, or
    # for csv a header and one line per residue
    lines = {"pretty": 9, "json": 8, "csv": 1 + 8 * 15}[output]
    assert out.endswith("\n") and out.count("\n") == lines


def test_char_list_stops_quietly_when_the_reader_leaves():
    # about 40 MB of csv: the reader takes one line and closes the pipe
    proc = subprocess.Popen([sys.executable, "-m", "qeuler", "char-list", "--d", "1001",
                             "--output", "csv"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=os.environ | {"PYTHONUNBUFFERED": "1"})
    assert proc.stdout.readline() == b"d,label,residue,re,im\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("max_terms", ["100000000", "1000000000000"])
def test_infeasible_plan_near_one_exits_3(capsys, max_terms):
    code, out, err = run_cli(capsys, [
        "verify", "--identity", "EQ4", "--d", "1", "--q", "0.9999999", "--epsilon", "1e-300",
        "--max-terms", max_terms,
    ])
    assert (code, out) == (3, "")
    assert "no cutoff" in err and "q=0.9999999," in err


def test_eval_powersum_value(capsys):
    code, out, _ = run_cli(capsys, [
        "eval-powersum", "--d", "3", "--chi", "1", "--r", "1",
        "--upper", "3", "--n", "1", "--i", "1", "--q", "0.5", "--output", "json",
    ])
    assert code == 0
    record = json.loads(out)
    assert record["value"] == [-0.875, 0.0]


def test_eval_qeuler_value(capsys):
    code, out, _ = run_cli(capsys, [
        "eval-qeuler", "--d", "1", "--r", "1", "--n", "0", "--q", "0.5",
        "--x", "0", "--output", "json",
    ])
    assert code == 0
    record = json.loads(out)
    assert record["value"][0] == pytest.approx(1.0, abs=1e-9)
    assert record["value"][1] == 0.0


def test_eval_lfun_accepts_complex_exponent(capsys):
    # a negative real part works as a separate value as well as with "="
    for s_args, expected in ((["--s", "1,1"], [1.0, 1.0]),
                             (["--s", "-0.5,0.5"], [-0.5, 0.5]),
                             (["--s=-0.5,0.5"], [-0.5, 0.5])):
        code, out, _ = run_cli(capsys, [
            "eval-lfun", "--d", "3", "--chi", "1", "--r", "1", "--q", "0.5",
            *s_args, "--x", "1", "--output", "json",
        ])
        assert code == 0, s_args
        record = json.loads(out)
        assert record["s"] == expected
    code, out, _ = run_cli(capsys, [
        "verify", "--identity", "T1", "--d", "3", "--chi", "1", "--q", "0.5",
        "--a", "1", "--b", "3", "--s", "-1.5,0.5", "--x", "1", "--output", "json",
    ])
    assert code == 0
    assert json.loads(out)["instance"]["s"] == [-1.5, 0.5]


def test_verify_interpolation_passes(capsys):
    # the second call has sides far above one: the tolerance scales with them
    for argv, count in ((["--d", "1", "--r", "1", "--q", "0.5", "--n-max", "8",
                          "--x", "1"], 9),
                        (["--d", "45", "--r", "3", "--q", "0.9", "--n-max", "9",
                          "--x", "1.5", "--chi", "0"], 10)):
        code, out, _ = run_cli(capsys, [
            "verify", "--identity", "EQ4", *argv, "--output", "json",
        ])
        assert code == 0, argv
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert len(reports) == count
        assert all(r["pass"] for r in reports)


def test_verify_failure_exits_1(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--identity", "T2", "--d", "3", "--chi", "1", "--r", "1",
        "--q", "0.5", "--a", "1", "--b", "3", "--n-max", "3", "--x", "1",
        "--tolerance", "1e-30", "--output", "json",
    ])
    assert code == 1
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert any(not r["pass"] for r in reports)
    assert all(r["residual"] is not None for r in reports)


def test_infeasible_plan_exits_3(capsys):
    code, _, err = run_cli(capsys, [
        "eval-qeuler", "--d", "1", "--q", "0.999", "--n", "0",
        "--epsilon", "1e-12", "--max-terms", "100",
    ])
    assert code == 3
    assert "error" in err


def test_imaginary_exponent_has_unit_weights(capsys):
    # |[m+x]_q^(-400i)| = 1 for every m: the plan needs no more than at s = 0
    values = []
    for epsilon in ("1e-10", "1e-14"):
        code, out, _ = run_cli(capsys, [
            "eval-lfun", "--d", "3", "--q", "0.5", "--s", "0,400", "--epsilon", epsilon,
            "--output", "json",
        ])
        assert code == 0
        values.append(complex(*json.loads(out)["value"]))
    assert abs(values[0] - values[1]) <= 1e-10


@pytest.mark.parametrize("argv", [
    ["eval-qeuler", "--d", "3", "--q", "0.5", "--n", "1000000"],  # (1-q)^(-n)
    ["eval-lfun", "--d", "3", "--q", "0.5", "--s", "1400", "--x", "0.5"],  # [x]_q^(-Re s)
    ["eval-lfun", "--d", "3", "--chi", "1", "--q", "0.5", "--s", "-300", "--x", "1e-300"],
    # [b]_q^s in the T1 side: cmath.exp overflows before any planner runs
    ["verify", "--identity", "T1", "--d", "1", "--q", "0.5", "--a", "1", "--b", "3",
     "--s", "1300", "--x", "1"],
    # [8]_q^100000 in a power sum's weights: the sum would print as NaN, not JSON
    ["eval-powersum", "--d", "5", "--chi", "1", "--r", "2", "--upper", "5", "--n", "100000",
     "--i", "100000", "--q", "0.9", "--output", "json"],
    # 0.5^99999 underflows to zero: the mirror side has no deformation q^b
    ["verify", "--identity", "T2", "--d", "1", "--q", "0.5", "--a", "1", "--b", "99999",
     "--output", "json"],
])
def test_unbounded_weight_is_infeasible_not_a_crash(capsys, argv):
    # main() returns instead of raising, so no traceback reaches the user
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["eval-powersum", "--d", "1", "--r", "100", "--upper", "1", "--n", "0", "--i", "0",
     "--q", "0.5"],
    ["verify", "--identity", "T3", "--d", "1", "--r", "100", "--q", "0.5", "--n-max", "1"],
])
def test_orders_past_the_array_dimension_limit_evaluate(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert out and err == ""


@pytest.mark.parametrize("argv", [
    ["char-list", "--d", "3"],
    ["verify", "--identity", "T2", "--d", "3", "--q", "0.5", "--a", "1", "--b", "3"],
])
def test_unwritable_out_path_exits_2(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, argv + ["--out", str(tmp_path / "missing" / "x.txt")])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_char_list_csv_cells_are_plain_numbers(capsys):
    code, out, _ = run_cli(capsys, ["char-list", "--d", "15", "--output", "csv"])
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "d,label,residue,re,im"
    for row in rows:
        d, label, residue, re, im = row.split(",")
        assert int(d) == 15 and 0 <= int(label) < 8 and 0 <= int(residue) < 15
        assert abs(complex(float(re), float(im))) in (0.0, pytest.approx(1.0))


def test_budget_overrun_exits_3(capsys):
    # at r=1, 10^12 tuple totals: refused before the weights are allocated
    for r, upper in (("3", "10000"), ("1", "1000000000000")):
        code, _, err = run_cli(capsys, [
            "eval-powersum", "--d", "3", "--q", "0.5", "--r", r,
            "--upper", upper, "--n", "1", "--i", "1",
        ])
        assert code == 3
        assert "budget" in err


def test_json_output_is_deterministic(capsys):
    argv = [
        "verify", "--identity", "T2", "--d", "3", "--r", "1", "--q", "0.5",
        "--a", "1", "--b", "3", "--n-max", "2", "--x", "0.5", "--output", "json",
    ]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_emitted_json_round_trips(capsys):
    argv = [
        "eval-qeuler", "--d", "3", "--chi", "1", "--r", "2", "--n", "3",
        "--q", "0.5", "--x", "0.5", "--output", "json",
    ]
    _, out, _ = run_cli(capsys, argv)
    record = json.loads(out)
    assert json.dumps(record) == out.strip()


def test_output_file(tmp_path, capsys):
    target = tmp_path / "chars.jsonl"
    code, out, _ = run_cli(capsys, [
        "char-list", "--d", "5", "--output", "json", "--out", str(target),
    ])
    assert code == 0
    assert out == ""
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 4


def test_csv_verify_has_residual_and_pass_columns(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--identity", "EQ4", "--d", "1", "--r", "1", "--q", "0.5",
        "--n-max", "1", "--output", "csv",
    ])
    assert code == 0
    header = out.splitlines()[0]
    assert "residual" in header
    assert "pass" in header


@pytest.mark.parametrize("argv", [
    ["eval-qeuler", "--d", "3", "--chi", "7", "--n", "0", "--q", "0.5"],
    ["char-list", "--d", "3", "--chi", "7"],
    ["verify", "--identity", "T2", "--d", "45", "--chi", "24", "--q", "0.5"],
])
def test_chi_out_of_range_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "group size" in err


@pytest.mark.parametrize("d,size", [(1, 1), (3, 2), (9, 6), (45, 24), (3001, 3000)])
def test_verify_checks_chi_against_phi_and_builds_the_group_once(capsys, monkeypatch, d,
                                                                  size):
    import qeuler.characters as characters
    import qeuler.cli as cli
    import qeuler.identities as identities

    builds = []
    build = characters.build_character_group
    for module in (cli, identities):
        monkeypatch.setattr(module, "build_character_group",
                            lambda m: builds.append(m) or build(m))
    argv = ["verify", "--identity", "T2", "--d", str(d), "--q", "0.5", "--chi"]
    assert run_cli(capsys, argv + [str(size - 1)])[0] == 0
    assert builds == [d]
    code, _, err = run_cli(capsys, argv + [str(size)])
    assert code == 2 and f"--chi must be below the group size {size}" in err
    assert builds == [d]


def test_verify_refuses_a_modulus_past_the_bound_as_before(capsys):
    code, out, err = run_cli(capsys, ["verify", "--identity", "T2", "--d", "3003", "--q", "0.5"])
    assert (code, out) == (2, "")
    assert "modulus 3003 exceeds the construction bound 3001" in err


def test_a_degree_sweep_refuses_at_its_first_unbounded_degree(capsys):
    # the power-sum side is first not a finite double at n = 546, before the
    # weight bound 2^n overflows at n = 1024: exit 3, nothing written
    code, out, err = run_cli(capsys, ["verify", "--identity", "EQ12", "--d", "1", "--q", "0.5",
                                      "--a", "1", "--b", "3", "--n-max", "1100"])
    assert (code, out) == (3, "")
    assert "a side value at n=546 is not a finite double" in err


@pytest.mark.parametrize("argv", [
    "verify --identity T2 --d 3001 --q 0.5 --n-max 10000",  # 3000 x 10001 instances
    "verify --identity EQ15 --d 1 --q 0.5 --m-max 10000 --n-max 10000",  # 10001^2
])
def test_a_sweep_past_the_budget_exits_3_before_listing_it(argv):
    # each flag is within its rule, but listing the grid would take gigabytes:
    # the child gets 1 GiB of address space, so a regression fails, not swaps
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "qeuler", *argv.split()], capture_output=True,
                          preexec_fn=cap, timeout=60)
    assert (done.returncode, done.stdout) == (3, b"")
    assert b"over the budget 1e+06" in done.stderr
    assert time.perf_counter() - start < 10


def test_usage_error_type_exists():
    with pytest.raises(UsageError):
        parse_args(["eval-qeuler", "--d", "1", "--q", "1.5", "--n", "0"])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# flag: (values inside its rule, values its rule refuses)
_FLAG_VALUES = {
    "--identity": (["T1", "T2", "T3", "EQ4", "EQ5", "EQ9", "EQ12", "EQ13", "EQ15"], ["T9"]),
    "--d": (["1", "3", "5", "15"], ["4", "-3", "3003"]),
    "--chi": (["0", "1", "3"], ["-1", "x"]),
    "--r": (["1", "2", "3"], ["0"]),
    "--q": (["0.1", "0.5", "0.7", "0.9"], ["1", "nan"]),
    "--x": (["0", "0.5", "1", "2.5", "1e-300"], ["inf", "-1"]),
    "--y": (["0", "0.25", "1"], ["nan"]),
    "--s": (["1.5", "-2", "0.5,1", "-0.5,0.5", "0,400"], ["nan", "x"]),
    "--n": (["0", "1", "3", "6", "100000"], ["-1"]),
    "--i": (["0", "1", "3"], ["-2"]),
    "--upper": (["1", "3", "7", "1000000000000"], ["0"]),
    "--a": (["1", "3"], ["2"]),
    "--b": (["1", "3", "5"], ["0"]),
    "--n-max": (["0", "2", "4"], ["10001"]),
    "--m-max": (["0", "2"], ["-1"]),
    "--epsilon": (["1e-6", "1e-10", "1e-300"], ["0", "inf"]),
    "--max-terms": (["0", "50", "1000000000000"], ["-5"]),
    "--tolerance": (["1e-12", "0", "1e-3"], ["inf", "1e308"]),
    "--output": (["pretty", "json", "csv"], ["xml"]),
}
_COMMAND_FLAGS = {
    "char-list": ["--d", "--chi", "--output"],
    "eval-qeuler": ["--d", "--chi", "--r", "--q", "--n", "--x", "--epsilon", "--max-terms",
                    "--output"],
    "eval-lfun": ["--d", "--chi", "--r", "--q", "--s", "--x", "--epsilon", "--max-terms",
                  "--output"],
    "eval-powersum": ["--d", "--chi", "--r", "--q", "--upper", "--n", "--i", "--output"],
    "verify": ["--identity", "--d", "--chi", "--r", "--q", "--a", "--b", "--n-max", "--m-max",
               "--s", "--x", "--y", "--epsilon", "--max-terms", "--tolerance", "--output"],
}


_REQUIRED = {"--identity", "--d", "--q", "--n", "--s", "--upper", "--i"}


@st.composite
def _argvs(draw):
    """A command and a value for each of its flags: an optional flag is now
    and then left to its default, and one argv in four has one flag with a
    value its rule refuses."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = _COMMAND_FLAGS[command]
    refused = draw(st.sampled_from(flags)) if draw(st.integers(0, 3)) == 0 else None
    argv = [command]
    for flag in flags:
        valid, invalid = _FLAG_VALUES[flag]
        if flag != refused and flag not in _REQUIRED and draw(st.integers(0, 3)) == 0:
            continue
        argv += [flag, draw(st.sampled_from(invalid if flag == refused else valid))]
    return argv


@settings(deadline=None, max_examples=100)
@given(argv=_argvs())
@example(argv=["eval-powersum", "--d", "5", "--chi", "1", "--r", "2", "--upper", "5", "--n",
               "100000", "--i", "100000", "--q", "0.9", "--output", "json"])
@example(argv=["eval-powersum", "--d", "3", "--q", "0.5", "--upper", "1000000000000",
               "--n", "1", "--i", "1", "--output", "json"])
@example(argv=["eval-powersum", "--d", "3", "--q", "0.5", "--upper", "3", "--n", str(10 ** 400),
               "--i", "1", "--output", "json"])
@example(argv=["eval-qeuler", "--d", "3", "--q", "0.5", "--n", "1000000", "--output", "json"])
@example(argv=["verify", "--identity", "T3", "--d", "1", "--r", "100", "--q", "0.5",
               "--n-max", "1", "--output", "json"])
@example(argv=["verify", "--identity", "EQ4", "--d", "1", "--q", "0.9999999", "--epsilon",
               "1e-300", "--max-terms", "1000000000000", "--output", "json"])
@example(argv=["eval-qeuler", "--d", "1", "--q", "0.01", "--r", "10000000", "--n", "0",
               "--max-terms", "10000000"])
@example(argv=["eval-qeuler", "--d", "1", "--q", "0.9999", "--r", "2", "--n", "0",
               "--max-terms", "10000000"])
@example(argv=["verify", "--identity", "T2", "--d", "1", "--r", "1", "--q", "0.5", "--a", "3",
               "--b", "3", "--n-max", "1030", "--x", "1", "--output", "json"])
def test_every_argv_reaches_a_defined_exit(argv):
    # main() returns one of the four exit codes and lets no exception out;
    # json output is strict JSON, with no NaN or Infinity
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:  # only an identity instance fails
        assert argv[0] == "verify"
    if code in (2, 3):
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    if code in (0, 1) and "--output" in argv and argv[argv.index("--output") + 1] == "json":
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=_reject_constant)


def test_pretty_verify_prints_a_recorded_error_on_its_line(capsys):
    # x = 0 is outside T1's domain: each character records the DomainError
    code, out, err = run_cli(capsys, ["verify", "--identity", "T1", "--d", "3", "--q", "0.5",
                                      "--a", "1", "--b", "3", "--s", "1", "--x", "0"])
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"FAIL T1 d=3 chi={chi} r=1 q=0.5 a=1 b=3 s=(1+0j) x=0.0 error: DomainError: "
        "x must be strictly positive, got 0.0" for chi in (0, 1)] + ["0/2 instances passed"]


def test_help_exits_0(capsys):
    code, out, err = run_cli(capsys, ["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: qeuler")


def test_a_reader_that_left_drops_the_output_quietly(capsys, monkeypatch):
    # in-process: a write to a closed pipe raises BrokenPipeError, and stdout
    # is then dropped so that the exit-time flush cannot raise it again
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["char-list", "--d", "15", "--output", "csv"]) == 0
    assert sys.stdout is None
    monkeypatch.undo()
    assert capsys.readouterr().err == ""

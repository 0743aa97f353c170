import json

import pytest

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


@pytest.mark.parametrize("argv", [
    ["eval-qeuler", "--d", "3", "--q", "0.5", "--n", "1000000"],  # ((1+q^x)/(1-q))^n
    ["eval-lfun", "--d", "3", "--q", "0.5", "--s", "0,400"],  # exp(|Im s| pi)
    ["eval-lfun", "--d", "3", "--chi", "1", "--q", "0.5", "--s", "-300", "--x", "1e-300"],
    # [b]_q^s in the T1 side: cmath.exp overflows before any planner runs
    ["verify", "--identity", "T1", "--d", "1", "--q", "0.5", "--a", "1", "--b", "3",
     "--s", "1300", "--x", "1"],
])
def test_unbounded_weight_is_infeasible_not_a_crash(capsys, argv):
    # main() returns instead of raising, so no traceback reaches the user
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_budget_overrun_exits_3(capsys):
    code, _, err = run_cli(capsys, [
        "eval-powersum", "--d", "3", "--q", "0.5", "--r", "3",
        "--upper", "10000", "--n", "1", "--i", "1",
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
])
def test_chi_out_of_range_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "group size" in err


def test_usage_error_type_exists():
    with pytest.raises(UsageError):
        parse_args(["eval-qeuler", "--d", "1", "--q", "1.5", "--n", "0"])

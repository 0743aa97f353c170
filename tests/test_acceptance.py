"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from qeuler import (
    QContext,
    QEulerSpec,
    SweepGrid,
    SymmetryInstance,
    build_character_group,
    check,
    qeuler_poly,
    qeuler_poly_naive,
    qeuler_value,
    run_suite,
)

GROUPS = {d: build_character_group(d) for d in (1, 3, 5)}


def _criterion(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    tag = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{tag} {name}: {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: took {elapsed:.1f}s, budget {budget:.0f}s"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for d in (1, 3, 5):
        for chi in GROUPS[d]:
            for r in (1, 2, 3):
                for q in (0.3, 0.5, 0.7):
                    ctx = QContext(q)
                    for n in range(5):
                        for x in (0.0, 0.5, 1.0):
                            spec = QEulerSpec.create(chi, r, n, x, ctx,
                                                     epsilon=1e-12)
                            gap = abs(qeuler_poly(spec)
                                      - qeuler_poly_naive(spec, spec.plan.cutoff_M))
                            worst = max(worst, gap)
                            count += 1
    elapsed = time.perf_counter() - start
    _criterion("criterion 1 (grouped vs naive evaluation)",
               worst <= 1e-10,
               f"{count} instances, worst gap {worst:.2e} <= 1e-10",
               elapsed, 30.0)


def test_criterion_2_interpolation():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    ctx = QContext(0.5)
    for d in (1, 3):
        for chi in GROUPS[d]:
            for r in (1, 2):
                for n in range(9):
                    for x in (0.5, 1.0):
                        inst = SymmetryInstance(chi=chi, r=r, ctx=ctx, n=n, x=x)
                        report = check("EQ4", inst, rel_tol=1e-8)
                        assert report.passed
                        worst = max(worst, report.residual)
                        count += 1
    elapsed = time.perf_counter() - start
    _criterion("criterion 2 (l(-n) interpolates E_n)",
               worst <= 1e-8,
               f"{count} instances, worst residual {worst:.2e} <= 1e-8",
               elapsed, 10.0)


AB_PAIRS = ((1, 3), (3, 5), (1, 5))


def _relative_check(reports, rel):
    worst = 0.0
    for r in reports:
        assert r.error is None, r.error
        limit = rel * max(abs(r.lhs), 1.0)
        assert r.residual <= limit, (r.identity_id, r.instance, r.residual, limit)
        worst = max(worst, r.residual / max(abs(r.lhs), 1.0))
    return worst


def test_criterion_3_lfunction_symmetry():
    start = time.perf_counter()
    grid = SweepGrid(
        d_values=(1, 3),
        q_values=(0.5,),
        r_values=(1, 2),
        ab_pairs=AB_PAIRS,
        s_values=(-3 + 0j, -1 + 0j, 0.5 + 0j, 2.5 + 0j, 1 + 1j),
        x_values=(1.0,),
    )
    reports = run_suite("T1", grid)
    worst = _relative_check(reports, 1e-7)
    elapsed = time.perf_counter() - start
    _criterion("criterion 3 (l-function symmetry)",
               True,
               f"{len(reports)} instances, worst relative residual {worst:.2e} <= 1e-7",
               elapsed, 60.0)


def _theorem_grid():
    return SweepGrid(
        d_values=(1, 3),
        q_values=(0.3, 0.5),
        r_values=(1, 2),
        ab_pairs=AB_PAIRS,
        n_values=tuple(range(7)),
        x_values=(0.0, 0.5, 1.0),
    )


def test_criterion_4_polynomial_symmetry():
    start = time.perf_counter()
    reports = run_suite("T2", _theorem_grid())
    worst = _relative_check(reports, 1e-7)
    elapsed = time.perf_counter() - start
    _criterion("criterion 4 (polynomial symmetry)",
               True,
               f"{len(reports)} instances, worst relative residual {worst:.2e} <= 1e-7",
               elapsed, 60.0)


def test_criterion_5_power_sum_symmetry_and_bridge():
    start = time.perf_counter()
    grid = _theorem_grid()
    t3_reports = run_suite("T3", grid)
    worst_t3 = _relative_check(t3_reports, 1e-7)
    bridge_worst = 0.0
    for identity in ("EQ12", "EQ13"):
        reports = run_suite(identity, grid)
        bridge_worst = max(bridge_worst, _relative_check(reports, 1e-8))
    elapsed = time.perf_counter() - start
    _criterion("criterion 5 (power-sum symmetry and bridge)",
               True,
               f"{len(t3_reports)} T3 instances (worst {worst_t3:.2e} <= 1e-7), "
               f"bridge worst {bridge_worst:.2e} <= 1e-8",
               elapsed, 60.0)


def test_criterion_6_addition_and_two_index_suites():
    start = time.perf_counter()
    points = (0.0, 0.25, 0.5)
    base = dict(d_values=(1, 3), q_values=(0.5,), r_values=(1, 2))
    grids = {
        "EQ5": SweepGrid(**base, n_values=tuple(range(6)), x_values=points),
        "EQ9": SweepGrid(**base, n_values=tuple(range(6)), x_values=points,
                         y_values=points),
        "EQ15": SweepGrid(**base, m_values=tuple(range(6)),
                          n_values=tuple(range(6)), x_values=points,
                          y_values=points),
    }
    worst = 0.0
    worst_degenerate = 0.0
    total = 0
    for identity, grid in grids.items():
        reports = run_suite(identity, grid)
        total += len(reports)
        worst = max(worst, _relative_check(reports, 1e-7))
        for r in reports:
            if r.instance["x"] == 0.0:
                assert r.residual <= 1e-12, (identity, r.instance, r.residual)
                worst_degenerate = max(worst_degenerate, r.residual)
    elapsed = time.perf_counter() - start
    _criterion("criterion 6 (shift expansion and two-index suites)",
               True,
               f"{total} instances, worst relative residual {worst:.2e} <= 1e-7, "
               f"x=0 worst {worst_degenerate:.2e} <= 1e-12",
               elapsed, 30.0)


def test_criterion_7_truncation_soundness():
    start = time.perf_counter()
    rng = random.Random(20260809)
    worst = 0.0
    for _ in range(50):
        d = rng.choice((1, 3, 5))
        group = GROUPS[d]
        chi = group[rng.randrange(len(group))]
        r = rng.randint(1, 3)
        n = rng.randint(0, 8)
        x = rng.uniform(0.0, 2.0)
        q = rng.uniform(0.2, 0.8)
        ctx = QContext(q)
        coarse = qeuler_value(chi, r, n, x, ctx, epsilon=1e-8)
        fine = qeuler_value(chi, r, n, x, ctx, epsilon=1e-12)
        gap = abs(coarse - fine)
        assert gap <= 1e-8 + 1e-12, (d, chi.label, r, n, x, q, gap)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    _criterion("criterion 7 (truncation soundness)",
               True,
               f"50 random specs, worst budget gap {worst:.2e} <= 1e-8 + 1e-12",
               elapsed, 10.0)


def test_criterion_8_character_groups():
    start = time.perf_counter()
    for d in range(1, 46, 2):
        group = build_character_group(d)
        phi = sum(1 for m in range(d) if math.gcd(m, d) == 1) if d > 1 else 1
        assert len(group) == phi, d
        for chi in group:
            values = chi.values
            if chi.label != 0:  # not the principal character
                assert abs(values.sum()) <= 1e-12, (d, chi.label)
            for m in range(d):
                for k in range(d):
                    gap = abs(values[m * k % d] - values[m] * values[k])
                    assert gap <= 1e-12, (d, chi.label, m, k)
    elapsed = time.perf_counter() - start
    _criterion("criterion 8 (character group correctness)",
               True,
               "odd moduli up to 45: sizes, orthogonality, multiplicativity",
               elapsed, 5.0)


CLI_JSON_MATRIX = [
    (0, ["char-list", "--d", "3", "--output", "json"]),
    (0, ["eval-powersum", "--d", "3", "--chi", "1", "--r", "1", "--upper", "3",
         "--n", "1", "--i", "1", "--q", "0.5", "--output", "json"]),
    (0, ["verify", "--identity", "EQ4", "--d", "1", "--r", "1", "--q", "0.5",
         "--n-max", "3", "--x", "1", "--output", "json"]),
    (1, ["verify", "--identity", "T2", "--d", "3", "--chi", "1", "--r", "1",
         "--q", "0.5", "--a", "1", "--b", "3", "--n-max", "2", "--x", "1",
         "--tolerance", "1e-30", "--output", "json"]),
]

CLI_ERROR_MATRIX = [
    (2, ["eval-qeuler", "--d", "1", "--q", "1.5", "--n", "0"]),
    (3, ["eval-qeuler", "--d", "1", "--q", "0.999", "--n", "0",
         "--epsilon", "1e-12", "--max-terms", "100"]),
]


def _run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "qeuler", *argv],
        capture_output=True,
        timeout=60,
    )


def test_criterion_9_cli_contract():
    start = time.perf_counter()
    seen_codes = set()
    for expected, argv in CLI_JSON_MATRIX:
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first.returncode == expected, (argv, first.returncode, first.stderr)
        assert second.returncode == expected
        assert first.stdout == second.stdout, argv
        for line in first.stdout.decode().strip().splitlines():
            json.loads(line)  # every record is valid JSON
        seen_codes.add(first.returncode)
    for expected, argv in CLI_ERROR_MATRIX:
        proc = _run_cli(argv)
        assert proc.returncode == expected, (argv, proc.returncode, proc.stderr)
        seen_codes.add(proc.returncode)
    elapsed = time.perf_counter() - start
    _criterion("criterion 9 (CLI contract)",
               seen_codes == {0, 1, 2, 3},
               f"exit codes {sorted(seen_codes)}, byte-identical JSON re-runs",
               elapsed, 5.0)
